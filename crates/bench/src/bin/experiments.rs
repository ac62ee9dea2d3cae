//! The experiment driver: regenerates every table and figure of the paper.
//!
//! ```text
//! experiments <id>... [--scale N] [--out DIR]
//! experiments all [--scale N]
//! experiments check <path|-> [--format f] [--level rc|ra|si|ser|both|all|mixed] [--checker c] [--expect pass|fail]
//! experiments convert <in> <out> [--from f] [--to f]
//! experiments serve [--addr A] [--workers N] [--soft-limit B] [--hard-limit B]
//! experiments client <op> --addr HOST:PORT ...
//! experiments dst [--seeds N] [--seed S] [--schedule random|pathological] [--fast] [--out FILE]
//! experiments lint [--root DIR]
//! experiments list
//! ```
#![warn(clippy::allow_attributes_without_reason)]

use aion_bench::experiments::{dst, interchange, lint, run, serve, Ctx, ALL};

#[global_allocator]
static ALLOCATOR: aion_bench::alloc::CountingAllocator = aion_bench::alloc::CountingAllocator;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Subcommands with positional arguments dispatch before the
    // experiment-id loop.
    match args.first().map(String::as_str) {
        Some("check") => return interchange::check_cmd(&args[1..]),
        Some("convert") => return interchange::convert_cmd(&args[1..]),
        Some("serve") => return serve::serve_cmd(&args[1..]),
        Some("client") => return serve::client_cmd(&args[1..]),
        Some("dst") => return dst::dst_cmd(&args[1..]),
        Some("lint") => return lint::lint_cmd(&args[1..]),
        _ => {}
    }
    let mut ctx = Ctx::default();
    let mut ids: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                ctx.scale = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&s: &usize| s > 0)
                    .unwrap_or_else(|| die("--scale needs a positive integer"));
            }
            "--out" => {
                i += 1;
                ctx.out = args.get(i).map(Into::into).unwrap_or_else(|| die("--out needs a path"));
            }
            "--fast" => ctx.fast = true,
            "--level" => {
                i += 1;
                ctx.level =
                    Some(args.get(i).cloned().unwrap_or_else(|| die("--level needs a value")));
            }
            "list" => {
                println!("available experiments:");
                for id in ALL {
                    println!("  {id}");
                }
                println!(
                    "  conformance   (anomaly × level × checker matrix; --fast for CI; \
                     not part of `all`)"
                );
                println!("  check <path|->  (stream a history file, or stdin with '-', through a checker)");
                println!("  convert <in> <out>  (translate between interchange formats)");
                println!("  serve   (run the aion-serve multi-tenant checking daemon)");
                println!("  client <op>  (send one AIONSRV/1 request to a running daemon)");
                println!(
                    "  dst     (deterministic simulation seed sweep; --seeds N --fast for CI)"
                );
                println!("  lint    (workspace static analysis: seam/determinism/panic contracts)");
                return;
            }
            "all" => ids.extend(ALL.iter().map(|s| s.to_string())),
            other if other.starts_with('-') => die(&format!("unknown flag {other}")),
            other => ids.push(other.to_string()),
        }
        i += 1;
    }
    if ids.is_empty() {
        die("usage: experiments <id>...|all [--scale N] [--out DIR]  (try `experiments list`)");
    }
    println!(
        "# aion experiments — scale 1/{} of paper sizes (use --scale 1 for paper scale)\n",
        ctx.scale
    );
    for id in ids {
        let start = aion_types::Stopwatch::start();
        if !run(&id, &ctx) {
            eprintln!("unknown experiment '{id}' (try `experiments list`)");
            std::process::exit(2);
        }
        println!("[{id} done in {:.1}s]\n", start.elapsed().as_secs_f64());
    }
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}
