#!/bin/sh
# The mutant ledger: each `<pr>-<slug>.patch` beside this script plants
# one bug that a gate of this repository once caught, and the gate must
# still catch it. A patch starts with two header lines and may add a
# third:
#
#   # must-fail: <command, run by sh from the patched tree's root>
#   # test: <the test's name as `cargo test` prints it>
#   # panic: <a substring of the failure's message>   (optional)
#
# For each patch the runner checks the current commit out into a fresh
# detached worktree, applies the patch (one that no longer applies fails
# the run: re-cut it, or retire it and name the gate that now covers its
# bug class), runs the command and requires a non-zero exit, a
# `test <name> ... FAILED` line and, where given, the panic substring.
# `# panic:` pins which step of a test failed, for tests that run
# several steps (alloc_gates' one `#[test]`) or cells (the precedence
# table). The worktree is removed afterwards.
#
# Usage: sh analysis/mutants/run.sh [patch ...]
# Every patch under analysis/mutants/ when none is named. Environment:
#   MUTANTS_WORKDIR   scratch directory for the worktree and the logs
#                     (default: ${TMPDIR:-/tmp}/lifeguard-mutants)
#   CARGO_TARGET_DIR  one target directory shared by every patch
#                     (default: $MUTANTS_WORKDIR/target)
# Exit status 0 when every patch was killed, 1 otherwise.

set -eu

here=$(cd "$(dirname "$0")" && pwd)
root=$(git -C "$here" rev-parse --show-toplevel)
work=${MUTANTS_WORKDIR:-${TMPDIR:-/tmp}/lifeguard-mutants}
CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$work/target}
export CARGO_TARGET_DIR
tree=$work/tree
mkdir -p "$work"
# A worktree an interrupted run left behind.
git -C "$root" worktree remove --force "$tree" 2>/dev/null || true
git -C "$root" worktree prune

if [ "$#" -eq 0 ]; then
    set -- "$here"/*.patch
fi

failed=0
for patch in "$@"; do
    patch=$(cd "$(dirname "$patch")" && pwd)/$(basename "$patch")
    slug=$(basename "$patch" .patch)
    log=$work/$slug.log
    cmd=$(sed -n '1s/^# must-fail: //p' "$patch")
    name=$(sed -n '2s/^# test: //p' "$patch")
    panic=$(sed -n '3s/^# panic: //p' "$patch")
    if [ -z "$cmd" ] || [ -z "$name" ]; then
        echo "$slug: MALFORMED (needs '# must-fail:' and '# test:' header lines)"
        failed=1
        continue
    fi

    start=$(date +%s)
    git -C "$root" worktree add --quiet --detach "$tree" HEAD
    if ! git -C "$tree" apply "$patch" >"$log" 2>&1; then
        verdict="DOES NOT APPLY"
    elif (cd "$tree" && sh -c "$cmd") >>"$log" 2>&1; then
        verdict="SURVIVED: '$cmd' passed"
    elif ! grep -q "^test $name \.\.\. FAILED" "$log"; then
        verdict="SURVIVED: no 'test $name ... FAILED' line"
    elif [ -n "$panic" ] && ! grep -qF -- "$panic" "$log"; then
        verdict="SURVIVED: $name failed, but not with '$panic'"
    else
        verdict="killed by $name"
    fi
    git -C "$root" worktree remove --force "$tree"

    echo "$slug: $verdict ($(($(date +%s) - start)) s; log $log)"
    case $verdict in
        killed*) ;;
        *) failed=1 ;;
    esac
done
exit "$failed"
