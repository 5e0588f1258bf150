//! Table II — hardware configurations of the evaluation, with the
//! substitution notes of this reproduction.

use rbd_baselines::TABLE2;
use rbd_bench::print_table;

fn main() {
    let rows: Vec<Vec<String>> = TABLE2
        .iter()
        .map(|e| {
            vec![
                e.kind.to_string(),
                e.processor.to_string(),
                e.freq.to_string(),
                e.usage.to_string(),
            ]
        })
        .collect();
    print_table(
        "Table II — hardware configurations in evaluations",
        &["Type", "Processor", "Freq", "Usage"],
        &rows,
    );
    println!(
        "\nReproduction note: CPUs/GPUs are analytic device models driven by the\n\
         shared operation-count workload; the XCVU9P @125 MHz row is the cycle-level\n\
         Dadu-RBD simulator; the 56 MHz row anchors the Robomorphic comparison."
    );
}
