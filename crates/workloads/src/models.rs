//! Per-layer workload tables for the real-world networks of Table III:
//! ResNet-18, VGG-16, ViT-Base-16 and BERT-Base.
//!
//! Conventions (documented deviations from the raw network definitions, all
//! standard practice for int8 tile-based accelerators and consistent with
//! measuring utilization against the *padded* ideal cycle count):
//!
//! * convolution inputs are pre-padded (`h`/`w` include the zero halo);
//! * channel counts below 8 (RGB stems) are padded to 8;
//! * output planes whose width is not coverable by an 8-pixel tile are
//!   padded to the next coverable size (e.g. 14×14 → 16×16);
//! * fully-connected and attention GeMMs with M = 1 are padded to M = 8,
//!   and output dimensions like 1000 are padded to 1008;
//! * FC layers whose weights exceed the scratchpad (VGG's 25088×4096) are
//!   K-tiled into scratchpad-sized slices with a repeat count — the
//!   physical system streams them slice-wise from DRAM and utilization is
//!   per-slice identical;
//! * pooling/normalization/softmax layers do not run on the GeMM core and
//!   are omitted (Table III reports GeMM-core utilization).

use crate::spec::{ConvSpec, GemmSpec, Workload};

/// One layer of a network: a workload plus how many times it runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layer {
    /// Human-readable layer name.
    pub name: String,
    /// The workload.
    pub workload: Workload,
    /// Number of executions (e.g. per attention head or repeated block).
    pub repeat: u32,
}

impl Layer {
    /// Creates a layer.
    #[must_use]
    pub fn new(name: impl Into<String>, workload: impl Into<Workload>, repeat: u32) -> Self {
        Layer {
            name: name.into(),
            workload: workload.into(),
            repeat,
        }
    }
}

/// A network: an ordered list of layers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Model {
    /// Network name as reported in Table III.
    pub name: &'static str,
    /// Network family ("CNN" or "Transformer", as in Table III).
    pub family: &'static str,
    /// The layers.
    pub layers: Vec<Layer>,
}

impl Model {
    /// Total multiply-accumulates across all layers and repeats.
    #[must_use]
    pub fn macs(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| l.workload.macs() * u64::from(l.repeat))
            .sum()
    }

    /// Total stall-free cycles on the 8×8×8 array.
    #[must_use]
    pub fn ideal_cycles(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| l.workload.ideal_cycles() * u64::from(l.repeat))
            .sum()
    }
}

/// ResNet-18 (identity-mapping variant), 224×224 input.
#[must_use]
pub fn resnet18() -> Model {
    let mut layers = vec![Layer::new(
        "conv1 7x7/2",
        ConvSpec::new(230, 230, 8, 64, 7, 7, 2),
        1,
    )];
    // layer1: 4 × 3x3,64 @56.
    layers.push(Layer::new(
        "layer1 3x3x64",
        ConvSpec::new(58, 58, 64, 64, 3, 3, 1),
        4,
    ));
    // layer2: downsampling block then stride-1 convs @28.
    layers.push(Layer::new(
        "layer2.0 3x3/2",
        ConvSpec::new(58, 58, 64, 128, 3, 3, 2),
        1,
    ));
    layers.push(Layer::new(
        "layer2.0 1x1/2 shortcut",
        ConvSpec::new(56, 56, 64, 128, 1, 1, 2),
        1,
    ));
    layers.push(Layer::new(
        "layer2 3x3x128",
        ConvSpec::new(30, 30, 128, 128, 3, 3, 1),
        3,
    ));
    // layer3 @14 → padded to 16×16 outputs.
    layers.push(Layer::new(
        "layer3.0 3x3/2",
        ConvSpec::new(34, 34, 128, 256, 3, 3, 2),
        1,
    ));
    layers.push(Layer::new(
        "layer3.0 1x1/2 shortcut",
        ConvSpec::new(31, 31, 128, 256, 1, 1, 2),
        1,
    ));
    layers.push(Layer::new(
        "layer3 3x3x256",
        ConvSpec::new(18, 18, 256, 256, 3, 3, 1),
        3,
    ));
    // layer4 @7 → padded to 8×8 outputs.
    layers.push(Layer::new(
        "layer4.0 3x3/2",
        ConvSpec::new(18, 18, 256, 512, 3, 3, 2),
        1,
    ));
    layers.push(Layer::new(
        "layer4.0 1x1/2 shortcut",
        ConvSpec::new(15, 15, 256, 512, 1, 1, 2),
        1,
    ));
    layers.push(Layer::new(
        "layer4 3x3x512",
        ConvSpec::new(10, 10, 512, 512, 3, 3, 1),
        3,
    ));
    layers.push(Layer::new("fc", GemmSpec::padded(1, 1000, 512), 1));
    Model {
        name: "ResNet-18",
        family: "CNN",
        layers,
    }
}

/// VGG-16, 224×224 input.
#[must_use]
pub fn vgg16() -> Model {
    let layers = vec![
        Layer::new("conv1_1", ConvSpec::new(226, 226, 8, 64, 3, 3, 1), 1),
        Layer::new("conv1_2", ConvSpec::new(226, 226, 64, 64, 3, 3, 1), 1),
        Layer::new("conv2_1", ConvSpec::new(114, 114, 64, 128, 3, 3, 1), 1),
        Layer::new("conv2_2", ConvSpec::new(114, 114, 128, 128, 3, 3, 1), 1),
        Layer::new("conv3_1", ConvSpec::new(58, 58, 128, 256, 3, 3, 1), 1),
        Layer::new("conv3_x", ConvSpec::new(58, 58, 256, 256, 3, 3, 1), 2),
        Layer::new("conv4_1", ConvSpec::new(30, 30, 256, 512, 3, 3, 1), 1),
        Layer::new("conv4_x", ConvSpec::new(30, 30, 512, 512, 3, 3, 1), 2),
        // conv5 works on 14×14 planes, padded to 16×16 outputs.
        Layer::new("conv5_x", ConvSpec::new(18, 18, 512, 512, 3, 3, 1), 3),
        // FC layers, M padded to 8 and weights sliced along K and N so one
        // slice's weights fit a scratchpad bank group (the physical system
        // streams them slice-wise from DRAM; per-slice utilization is
        // identical).
        Layer::new("fc6 (28 slices)", GemmSpec::new(8, 1024, 3584), 28),
        Layer::new("fc7 (8 slices)", GemmSpec::new(8, 1024, 2048), 8),
        Layer::new("fc8 (2 slices)", GemmSpec::padded(1, 1008, 2048), 2),
    ];
    Model {
        name: "VGG-16",
        family: "CNN",
        layers,
    }
}

/// ViT-Base/16, 224×224 input → 196 patches (+CLS = 197, padded to 200).
#[must_use]
pub fn vit_base_16() -> Model {
    let seq = 200; // 197 padded to the next 8-multiple.
    let hidden = 768;
    let heads = 12;
    let head_dim = 64;
    let mlp = 3072;
    let layers = vec![
        // Patch embedding: 196 patches × (16·16·3 = 768) → hidden.
        Layer::new("patch-embed", GemmSpec::new(seq, hidden, 768), 1),
        Layer::new("qkv-proj", GemmSpec::new(seq, 3 * hidden, hidden), 12),
        Layer::new(
            "attn-scores",
            GemmSpec::new(seq, seq, head_dim),
            12 * heads as u32,
        ),
        Layer::new(
            "attn-context",
            GemmSpec::new(seq, head_dim, seq),
            12 * heads as u32,
        ),
        Layer::new("attn-out", GemmSpec::new(seq, hidden, hidden), 12),
        Layer::new("mlp-up", GemmSpec::new(seq, mlp, hidden), 12),
        Layer::new("mlp-down", GemmSpec::new(seq, hidden, mlp), 12),
        Layer::new("head", GemmSpec::padded(1, 1000, hidden), 1),
    ];
    Model {
        name: "ViT-B-16",
        family: "Transformer",
        layers,
    }
}

/// BERT-Base, sequence length 128.
#[must_use]
pub fn bert_base() -> Model {
    let seq = 128;
    let hidden = 768;
    let heads = 12;
    let head_dim = 64;
    let ffn = 3072;
    let layers = vec![
        Layer::new("qkv-proj", GemmSpec::new(seq, 3 * hidden, hidden), 12),
        Layer::new(
            "attn-scores",
            GemmSpec::new(seq, seq, head_dim),
            12 * heads as u32,
        ),
        Layer::new(
            "attn-context",
            GemmSpec::new(seq, head_dim, seq),
            12 * heads as u32,
        ),
        Layer::new("attn-out", GemmSpec::new(seq, hidden, hidden), 12),
        Layer::new("ffn-up", GemmSpec::new(seq, ffn, hidden), 12),
        Layer::new("ffn-down", GemmSpec::new(seq, hidden, ffn), 12),
        Layer::new("pooler", GemmSpec::padded(1, hidden, hidden), 1),
    ];
    Model {
        name: "BERT-Base",
        family: "Transformer",
        layers,
    }
}

/// All four Table III networks.
#[must_use]
pub fn table3_models() -> Vec<Model> {
    vec![resnet18(), vgg16(), vit_base_16(), bert_base()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadGroup;

    #[test]
    fn resnet18_macs_in_expected_ballpark() {
        // ~1.8 GMACs for 224×224 ResNet-18; padding inflates slightly.
        let m = resnet18();
        let gmacs = m.macs() as f64 / 1e9;
        assert!((1.5..3.0).contains(&gmacs), "got {gmacs} GMACs");
        assert_eq!(m.family, "CNN");
    }

    #[test]
    fn vgg16_macs_in_expected_ballpark() {
        // ~15.5 GMACs for VGG-16.
        let gmacs = vgg16().macs() as f64 / 1e9;
        assert!((13.0..19.0).contains(&gmacs), "got {gmacs} GMACs");
    }

    #[test]
    fn bert_base_macs_in_expected_ballpark() {
        // ~11 GMACs per 128-token forward (22 GFLOPs).
        let gmacs = bert_base().macs() as f64 / 1e9;
        assert!((9.0..14.0).contains(&gmacs), "got {gmacs} GMACs");
    }

    #[test]
    fn vit_macs_in_expected_ballpark() {
        // ~17 GMACs per 224×224 forward.
        let gmacs = vit_base_16().macs() as f64 / 1e9;
        assert!((14.0..22.0).contains(&gmacs), "got {gmacs} GMACs");
    }

    #[test]
    fn transformers_are_pure_gemm() {
        for model in [vit_base_16(), bert_base()] {
            assert_eq!(model.family, "Transformer");
            assert!(model
                .layers
                .iter()
                .all(|l| l.workload.group() == WorkloadGroup::Gemm));
        }
    }

    #[test]
    fn cnns_are_mostly_convs() {
        for model in [resnet18(), vgg16()] {
            let convs = model
                .layers
                .iter()
                .filter(|l| l.workload.group() == WorkloadGroup::Conv)
                .count();
            assert!(convs >= model.layers.len() - 3);
        }
    }

    #[test]
    fn ideal_cycles_match_macs() {
        for model in table3_models() {
            assert_eq!(model.macs(), model.ideal_cycles() * 512, "{}", model.name);
            assert!(model.layers.len() > 5);
        }
    }

    #[test]
    fn resnet_has_strided_downsampling() {
        let strided = resnet18()
            .layers
            .iter()
            .filter(|l| matches!(l.workload, Workload::Conv(c) if c.stride > 1))
            .count();
        assert_eq!(strided, 7);
    }
}
