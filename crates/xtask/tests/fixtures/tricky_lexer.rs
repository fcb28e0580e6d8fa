fn no_false_positives() -> &'static str {
    let in_string = "UdpSocket::bind and Instant::now() live here";
    // A comment may say SystemTime or extern "C" without tripping rules.
    /* Block comments too: TcpStream::connect(), std::thread::spawn,
    even nested /* thread_rng() */ stay invisible. */
    let raw = r#"raw strings hide "quotes" and extern "C" blocks"#;
    let byte = b"TcpListener bytes";
    let _lifetime: &'static str = "lifetimes are not char literals";
    let _ch = '"';
    let _ = (in_string, raw, byte);
    "ok"
}
