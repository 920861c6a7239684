//! Table II (`dm table2`): design-time parameters and runtime configurations
//! of DataMaestro, instantiated for the evaluation system's five streamers
//! (Fig. 6 right).

use dm_compiler::{design_a, design_b, design_c, design_d, design_e, BufferDepths, FeatureSet};

/// Prints Table II to stdout.
pub fn print() {
    println!("Table II: design-time parameters and runtime configurations");
    println!();
    println!("Design-time parameters (per DataMaestro instance):");
    println!("  N_R / N_W     number of read / write DataMaestros (3 / 2 here)");
    println!("  Mode_R/W      read or write mode");
    println!("  B_s, D_s      spatial bounds and dimension count");
    println!("  D_t           temporal dimension count");
    println!("  N_C           memory channels (= product of B_s)");
    println!("  D_ABf, D_DBf  address / data buffer depths");
    println!("  DP_ext        datapath extensions");
    println!("  W_B, N_BF     bank width and bank count (32 x 64 bit here)");
    println!();
    println!("Runtime configurations (CSR writes per workload):");
    println!("  Addr_B        base address");
    println!("  S_s           spatial strides");
    println!("  B_t, S_t      temporal bounds and strides");
    println!("  R_S           addressing-mode selection (FIMA/GIMA/NIMA)");
    println!();

    let features = FeatureSet::full();
    let depths = BufferDepths::default();
    let designs = [
        design_a(&features, depths).expect("valid"),
        design_b(&features, depths).expect("valid"),
        design_c(&features, depths).expect("valid"),
        design_d(&features, depths).expect("valid"),
        design_e(&features, depths).expect("valid"),
    ];
    println!("Evaluation-system instantiation (Fig. 6 right):");
    println!(
        "{:<6} {:<7} {:<14} {:<5} {:<5} {:<7} {:<7} DP_ext",
        "Name", "Mode", "B_s", "D_t", "N_C", "D_ABf", "D_DBf"
    );
    crate::rule(76);
    for d in &designs {
        let exts: Vec<String> = d.extensions().iter().map(ToString::to_string).collect();
        println!(
            "{:<6} {:<7} {:<14} {:<5} {:<5} {:<7} {:<7} {}",
            d.name(),
            d.mode().to_string(),
            format!("{:?}", d.spatial_bounds()),
            d.temporal_dims(),
            d.num_channels(),
            d.addr_buffer_depth(),
            d.data_buffer_depth(),
            if exts.is_empty() {
                "-".to_string()
            } else {
                exts.join(", ")
            },
        );
    }
}
