//! The benchmark harness's shared code: [`gate`], which judges the
//! artifacts the binaries under `src/bin` write.
//!
//! Every binary emits its results as a telemetry `Artifact`: one structure
//! rendered both as terminal text (suppressed by `--quiet`) and as a
//! machine-readable JSON file. The `paper` binary builds the paper's eight
//! figure and table artifacts from one simulated deployment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;
