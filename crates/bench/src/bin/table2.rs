//! Table II: the evaluated PolyBench kernels.
use polymix_bench::report::{Cli, Spec, Table};
fn main() {
    Cli::parse(&Spec::values(&[]));
    let mut t = Table::new(&["benchmark", "group", "description"]);
    for k in polymix_polybench::all_kernels() {
        t.row(vec![
            k.name.to_string(),
            format!("{:?}", k.group),
            k.description.to_string(),
        ]);
    }
    println!("== Table II — evaluated benchmarks ==\n{}", t.render());
}
