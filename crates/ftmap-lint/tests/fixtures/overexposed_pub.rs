// Fixture: seeded `overexposed-pub` violations. Never compiled — linted by
// the rule tests as `crates/demo/src/lib.rs` next to a sibling module and
// one file of every kind of outside user (see `overexposed_pub_workspace`).
// Every item has a use inside the crate, so `unreferenced-pub` stays quiet.

pub mod stats; // reached only through a `use` path in benchmark/

pub fn used_in_sibling() {} // line 8: violation (its own crate: pub(crate))

pub fn used_in_own_file() -> u32 { // line 10: violation (its own file: private)
    1
}

pub fn used_by_other_crate(holder: Holder) -> InSignature {
    let _ = holder.field;
    InSignature { nested: Nested }
}

pub struct InSignature {
    pub nested: Nested,
}

pub struct Nested; // kept through InSignature's field: kept types keep theirs

pub fn used_by_own_tests_dir() {}

pub fn used_by_bench() {}

pub fn used_by_bin() {}

pub fn used_by_main() {}

pub fn used_by_root_src() {}

pub fn used_by_root_tests() {}

pub fn used_by_example() {}

pub fn used_by_renamed_import() {}

/// Reached only from a compiled doc-test, a crate of its own:
///
/// ```
/// demo::used_by_doctest();
/// ```
pub fn used_by_doctest() {}

/// A `text` fence is not compiled, so it is no outside use:
///
/// ```text
/// demo::only_in_text_fence();
/// ```
pub fn only_in_text_fence() -> u32 { // line 53: violation (a text fence is no doc-test)
    2
}

pub struct Holder {
    pub field: FieldType,
}

pub struct FieldType;

pub struct Narrowed { // line 63: violation (only the sibling names it)
    pub inner: OnlyInNarrowedField,
}

pub struct OnlyInNarrowedField; // line 67: violation (its struct is narrowed too)

pub mod phases { // line 69: violation (only this file names it)
    pub const FIRST: &str = "first"; // line 70: violation (named outside its inline module)
}

// lint-allow(overexposed-pub): fixture-sanctioned API that only this file uses.
pub fn sanctioned() -> u32 {
    3
}

pub(crate) fn already_narrow() {}

fn own_uses() -> u32 {
    used_by_own_tests_dir();
    used_by_bench();
    used_by_bin();
    used_by_main();
    used_by_root_src();
    used_by_root_tests();
    used_by_example();
    used_by_renamed_import();
    used_by_doctest();
    let _ = used_by_other_crate(Holder { field: FieldType });
    used_in_own_file() + only_in_text_fence() + sanctioned() + phases::FIRST.len() as u32
}

#[cfg(test)]
mod tests {
    pub fn test_helper() {}
}
