// Fixture: a file that *names* every banned construct in comments, strings,
// raw strings, byte strings and char literals — and must produce zero
// diagnostics even under the strictest path (a scheduler hot path, which
// every rule applies to). This is the lexer's acid test.

//! Instant::now(), SystemTime, .unwrap(), .expect("x"), panic!("x"),
//! unreachable!(), LaunchConfig::new(1, 2), device.launch(&c, &k),
//! record_transfer(Transfer::upload(8)), #[allow(dead_code)]

/* Block comment: Instant::now() and state.lock().unwrap() and
   /* nested: panic!("still a comment") */ device.launch(&c, &k) */

fn strings_only() -> usize {
    let a = "Instant::now()";
    let b = "state.lock().unwrap()";
    let c = "panic!(\"escaped \\\" quote keeps the string open\")";
    let d = r#"record_transfer(Transfer::upload(8)) and "quoted" inside raw"#;
    let e = r##"raw with "# inside: LaunchConfig::new(1, 2)"##;
    let f = b"byte string: SystemTime::now()";
    let g = br#"raw bytes: device.launch(&c, &k)"#;
    let h = '\''; // escaped-quote char literal must not open a string
    let lifetime_test: &'static str = "lifetimes are not char literals";
    a.len() + b.len() + c.len() + d.len() + e.len() + f.len() + g.len() + lifetime_test.len()
        + (h as usize)
}

fn suppressed_sites(state: &std::sync::Mutex<u64>) -> u64 {
    // lint-allow(no-panic-in-workers): fixture-sanctioned loud failure, the
    // justification spans two comment lines directly above the call.
    let value = state.lock().expect("poisoned");
    *value
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    #[test]
    fn test_regions_are_exempt_from_every_rule() {
        let t0 = Instant::now();
        let v: Option<u32> = Some(1);
        v.unwrap();
        let _ = t0.elapsed();
    }
}
