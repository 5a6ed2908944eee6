// Fixture: seeded `unreferenced-pub` violations. Never compiled — linted by
// the rule tests as `crates/demo/src/lib.rs` next to a sibling module, an
// integration test and a benchmark source that reference some of its items.

pub fn only_declared() {} // line 5: violation (nothing mentions it)

pub fn only_own_tests() -> u32 { // line 7: violation (only this file's tests call it)
    1
}

pub const ONLY_REEXPORTED: u32 = 2; // line 11: violation (a re-export is not a use)

pub struct OnlyPrivateBody; // line 13: violation (only a private body names it)

fn private_user() -> usize {
    let _ = OnlyPrivateBody;
    helper_for_own_code()
}

pub fn helper_for_own_code() -> usize {
    3
}

pub fn used_by_sibling_tests() {}

pub fn used_by_integration_test() {}

pub fn used_by_benchmark() {}

pub enum Named {
    One,
}

pub fn make_named() -> Named {
    Named::One
}

pub struct Holder {
    pub field: FieldType,
    hidden: u8,
}

pub struct FieldType;

#[cfg(not(test))]
fn production_twin() -> u32 {
    only_in_not_test()
}

pub fn only_in_not_test() -> u32 {
    4
}

#[cfg(any(test, unix))]
pub fn any_test_is_production() {} // line 55: violation (cfg(any(test, …)) is not test code)

// lint-allow(unreferenced-pub): fixture-sanctioned API that no file calls.
pub fn suppressed() {}

pub(crate) fn crate_visible() {}

#[cfg(test)]
mod tests {
    pub fn test_helper() {}

    #[test]
    fn calls_own_items() {
        assert_eq!(super::only_own_tests(), 1);
        test_helper();
    }
}
