fn guarded() {
    // lint: allow(layering) — fixture: the one audited wall-clock read
    let _now = Instant::now();
}

fn unguarded() {
    let _now = Instant::now();
}

// lint: allow(layering)
fn missing_reason() {
    let _now = Instant::now();
}

// lint: allow(no_such_rule) — the rule name is validated
fn unknown_rule() {}

// lint: allow(layering) — this waiver matches nothing below
fn stale() {}

// lint: allow(lossy_cast) — a deleted rule is an unknown rule
fn deleted_rule() {}
