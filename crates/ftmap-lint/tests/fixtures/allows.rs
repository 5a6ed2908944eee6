// Fixture: seeded `justified-allows` violations. Never compiled.

#[allow(clippy::too_many_arguments)] // line 3: violation (no justification)
fn wide(a: u8, b: u8, c: u8, d: u8, e: u8, f: u8, g: u8, h: u8) {}

#[allow(dead_code)] // line 6: violation
struct Unused;

// lint-allow(justified-allows): the fixture's example of a written reason —
// this allow is load-bearing and the comment says why.
#[allow(clippy::large_enum_variant)]
enum Justified {
    Small(u8),
    Big([u8; 1024]),
}

/// Doc comments and the justification merge into one comment block — the
/// suppression still counts when doc lines sit above it.
// lint-allow(justified-allows): reason recorded mid-block.
#[allow(clippy::module_name_repetitions)]
struct AlsoJustified;

// Other attributes never trigger the rule:
#[derive(Debug, Clone)]
#[cfg(feature = "extra")]
struct Attributed;

#[cfg(test)]
mod tests {
    // Allows inside test regions are exempt.
    #[allow(dead_code)]
    fn test_helper() {}
}
