//! One scale-bench cell in its own process (VmHWM is a process-lifetime
//! high-water mark, so peak-RSS cells cannot share a process):
//! `scale_probe <smoke|paper|10x> <workers> <vp_slice>`
//! prints the measured [`shadow_bench::scale::ScaleCell`] as one-line
//! JSON on stdout. `vp_slice 0` means unbounded.

use shadow_bench::scale::run_scale_cell;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = args.get(1).map(String::as_str).unwrap_or("smoke");
    let workers: usize = args
        .get(2)
        .map(|s| s.parse().expect("workers: usize"))
        .unwrap_or(1);
    let vp_slice: Option<usize> = args
        .get(3)
        .map(|s| s.parse().expect("vp_slice: usize"))
        .filter(|&n| n > 0);

    let cell = run_scale_cell(scale, workers, vp_slice);
    println!("{}", serde_json::to_string(&cell).expect("cell serializes"));
}
