// Fixture: which `cfg` attributes make a test region. Never compiled —
// linted with a modeled-code path, where every `Instant` outside a test
// region is a `no-wall-clock` violation.

#[cfg(test)]
fn only_in_tests() -> std::time::Instant {
    std::time::Instant::now()
}

#[cfg(all(unix, test))]
fn only_in_unix_tests() -> std::time::Instant {
    std::time::Instant::now()
}

#[cfg(not(test))]
fn outside_tests() -> u64 {
    let t = std::time::Instant::now(); // line 17: violation (cfg(not(test)) is production)
    0
}

#[cfg(any(test, feature = "wall"))]
fn in_tests_or_a_feature() -> u64 {
    let t = std::time::Instant::now(); // line 23: violation (cfg(any(test, …)) is production)
    0
}

#[cfg(all(unix, not(test)))]
fn unix_outside_tests() -> u64 {
    let t = std::time::Instant::now(); // line 29: violation (not(test) nested in all)
    0
}
