//! The cost model, as text.
//!
//! `tests/golden/cost_model.txt` holds one line per modelled constant — name,
//! value with unit, provenance — as `twochains_memsim::cost::rows()` renders
//! it, followed by a `# file:line` comment naming where the sources held the
//! value before the constants were declared once in `twochains_memsim::cost`.
//! The file was written by hand from those sources, so it is the statement of
//! the model's numbers that does not come from the table it checks. The
//! comments are not part of the render; every other byte is compared exactly.
//!
//! A change that moves a modelled number on purpose says so, and edits its
//! line in the golden.

use two_chains_suite::memsim::cost;

const GOLDEN: &str = include_str!("golden/cost_model.txt");

#[test]
fn the_table_renders_as_the_hand_written_golden() {
    let rendered: String = cost::rows().map(|row| format!("{row}\n")).collect();
    let stated: String = GOLDEN
        .lines()
        .map(|line| {
            let (row, source) = line
                .split_once("  # ")
                .unwrap_or_else(|| panic!("golden line names no source: {line}"));
            assert!(source.contains(".rs:"), "not a file:line: {source}");
            format!("{row}\n")
        })
        .collect();
    assert_eq!(
        rendered, stated,
        "the cost table moved; rendered:\n{rendered}"
    );
}
