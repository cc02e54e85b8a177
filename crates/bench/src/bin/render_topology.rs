//! Regenerates the "render_topology" evaluation artefacts. See
//! `icpda_bench::experiments::render_topology`.

fn main() -> std::process::ExitCode {
    icpda_bench::run_main(icpda_bench::experiments::render_topology::run)
}
