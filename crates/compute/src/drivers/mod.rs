//! The management drivers (Figure 1: "Management drivers").

pub mod docker;
pub mod dpdk;
pub mod native;
mod sandbox;
pub mod vm;

pub use docker::DockerDriver;
pub use dpdk::DpdkDriver;
pub use native::NativeDriver;
pub use vm::VmDriver;
