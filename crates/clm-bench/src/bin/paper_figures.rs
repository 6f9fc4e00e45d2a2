//! Regenerates every table and figure of the CLM paper's evaluation.
//!
//! Usage: `cargo run --release -p clm-bench --bin paper_figures [-- <id>...]`
//! where `<id>` is e.g. `figure8` or `table5`; with no arguments every
//! experiment is generated in paper order, in table form.
//!
//! `paper_figures --json <id>` instead prints the one-line JSON summary of
//! an artefact measured by executing the trainers on the runtime
//! (`figure11`, `figure12`, `figure13`, `figure14`, `figure15`, `table7`) and exits
//! non-zero for any other id — the form CI's figure smoke step consumes.
fn main() {
    let requested: Vec<String> = std::env::args().skip(1).collect();
    let reports = clm_bench::all_reports();
    if requested.first().is_some_and(|a| a == "--json") {
        let id = requested.get(1).map(String::as_str).unwrap_or_default();
        match reports.iter().find(|(name, ..)| *name == id) {
            Some((_, _, Some(summary))) => println!("{}", summary()),
            _ => {
                eprintln!("paper_figures --json: no JSON summary for {id:?}");
                std::process::exit(2);
            }
        }
        return;
    }
    for (id, generate, _) in reports {
        if requested.is_empty() || requested.iter().any(|r| r == id) {
            println!("==== {id} ====");
            print!("{}", generate());
            println!();
        }
    }
}
