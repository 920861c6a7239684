//! Table I (`dm table1`): feature comparison of SotA data-movement solutions
//! with DataMaestro.

use dm_baselines::feature_matrix;

/// Prints Table I to stdout.
pub fn print() {
    let rows = feature_matrix();
    println!("Table I: comparison of SotA data movement solutions with DataMaestro");
    println!(
        "{:<18} {:<12} {:<10} {:<11} {:<12} {:<10} {:<10} {:<10}",
        "System",
        "OpenSource",
        "Reusable",
        "Decoupled",
        "AffineAcc",
        "Prefetch",
        "ModeSw",
        "OnTheFly"
    );
    crate::rule(98);
    for row in rows {
        println!(
            "{:<18} {:<12} {:<10} {:<11} {:<12} {:<10} {:<10} {:<10}",
            row.system,
            row.open_source.to_string(),
            row.reusable.to_string(),
            row.decoupled.to_string(),
            row.affine_access.to_string(),
            row.fine_grained_prefetch.to_string(),
            row.mode_switching.to_string(),
            row.on_the_fly.to_string(),
        );
    }
}
