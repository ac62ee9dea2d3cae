//! `experiments serve` / `experiments client`: run and talk to the
//! aion-serve daemon from the command line.
//!
//! `serve` binds the multi-tenant checking daemon and blocks until a
//! client sends `shutdown`. `client` speaks one AIONSRV/1 request per
//! invocation and prints the response as greppable `key=value` pairs
//! (event lines, when requested, print as their raw wire JSON) — the CI
//! daemon smoke job drives the full serve → feed → checkpoint → kill →
//! restore → verdict cycle through these two subcommands. See
//! `docs/serve.md` for the protocol.

use aion_io::json::JsonValue;
use aion_serve::{client, ServeConfig, Server};

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn flag_value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> &'a str {
    *i += 1;
    args.get(*i).map(String::as_str).unwrap_or_else(|| die(&format!("{flag} needs a value")))
}

/// `experiments serve [--addr HOST:PORT] [--workers N]
/// [--soft-limit BYTES] [--hard-limit BYTES]`
pub fn serve_cmd(args: &[String]) {
    let mut cfg = ServeConfig::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => cfg.addr = flag_value(args, &mut i, "--addr").to_owned(),
            "--workers" => {
                cfg.workers = flag_value(args, &mut i, "--workers")
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| die("--workers needs a positive integer"));
            }
            "--soft-limit" => {
                cfg.soft_limit_bytes = flag_value(args, &mut i, "--soft-limit")
                    .parse()
                    .unwrap_or_else(|_| die("--soft-limit needs a byte count"));
            }
            "--hard-limit" => {
                cfg.hard_limit_bytes = flag_value(args, &mut i, "--hard-limit")
                    .parse()
                    .unwrap_or_else(|_| die("--hard-limit needs a byte count"));
            }
            other => die(&format!(
                "unknown argument {other} \
                 (usage: experiments serve [--addr A] [--workers N] \
                 [--soft-limit B] [--hard-limit B])"
            )),
        }
        i += 1;
    }
    let server =
        Server::bind(cfg).unwrap_or_else(|e| die(&format!("cannot bind serve daemon: {e}")));
    // Parsed by the smoke job and by humans launching one-off clients.
    println!("aion-serve listening on {}", server.local_addr());
    if let Err(e) = server.run() {
        die(&format!("serve loop failed: {e}"));
    }
}

/// Render a parsed response value for the terminal: scalars as
/// `key=value` pairs, nested values as compact JSON.
fn render_value(v: &JsonValue) -> String {
    match v {
        JsonValue::Null => "null".into(),
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::Int(n) => n.to_string(),
        JsonValue::Str(s) => s.clone(),
        JsonValue::Arr(items) => {
            format!("[{}]", items.iter().map(render_value).collect::<Vec<_>>().join(","))
        }
        JsonValue::Obj(fields) => format!(
            "{{{}}}",
            fields
                .iter()
                .map(|(k, v)| format!("{k}={}", render_value(v)))
                .collect::<Vec<_>>()
                .join(" ")
        ),
    }
}

fn print_reply(op: &str, reply: &client::Reply) {
    for e in &reply.events {
        println!("event {}", render_value(e));
    }
    let mut parts = vec![format!("client {op}")];
    if let JsonValue::Obj(fields) = &reply.terminal {
        for (k, v) in fields {
            if k == "ok" || k == "op" {
                continue;
            }
            parts.push(format!("{k}={}", render_value(v)));
        }
    }
    println!("{}", parts.join(" "));
}

const CLIENT_USAGE: &str = "usage: experiments client <op> --addr HOST:PORT ...\n\
  open <session> [--level rc|ra|si|ser|mixed] [--kind kv|list] [--shards N] [--gc N] \
[--ext-timeout MS] [--spill PATH]\n\
  feed <session> <path|-> [--events]\n\
  finish <session>\n\
  checkpoint <session> <path>\n\
  restore <session> <path> [--shards N]\n\
  stats <session> | list | ping | shutdown";

/// `experiments client <op> --addr HOST:PORT ...` — one AIONSRV/1
/// request. Exits non-zero when the daemon reports an error.
pub fn client_cmd(args: &[String]) {
    let mut addr: Option<String> = None;
    let mut opts = client::OpenOptions::default();
    let mut events = false;
    let mut shards: Option<usize> = None;
    let mut positional: Vec<&str> = Vec::new();
    let mut op: Option<&str> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => addr = Some(flag_value(args, &mut i, "--addr").to_owned()),
            "--level" => opts.level = Some(flag_value(args, &mut i, "--level").to_owned()),
            "--kind" => opts.kind = Some(flag_value(args, &mut i, "--kind").to_owned()),
            "--shards" => {
                let n = flag_value(args, &mut i, "--shards")
                    .parse()
                    .unwrap_or_else(|_| die("--shards needs an integer"));
                opts.shards = Some(n);
                shards = Some(n);
            }
            "--gc" => {
                opts.gc_max_txns = Some(
                    flag_value(args, &mut i, "--gc")
                        .parse()
                        .unwrap_or_else(|_| die("--gc needs an integer")),
                )
            }
            "--ext-timeout" => {
                opts.ext_timeout_ms = Some(
                    flag_value(args, &mut i, "--ext-timeout")
                        .parse()
                        .unwrap_or_else(|_| die("--ext-timeout needs milliseconds")),
                )
            }
            "--spill" => opts.spill = Some(flag_value(args, &mut i, "--spill").to_owned()),
            "--events" => events = true,
            other if other.starts_with('-') && other != "-" => {
                die(&format!("unknown flag {other}\n{CLIENT_USAGE}"))
            }
            other => {
                if op.is_none() {
                    op = Some(other);
                } else {
                    positional.push(other);
                }
            }
        }
        i += 1;
    }
    let op = op.unwrap_or_else(|| die(CLIENT_USAGE));
    let addr = addr.unwrap_or_else(|| die("--addr is required"));
    let pos = |n: usize, what: &str| -> &str {
        positional.get(n).copied().unwrap_or_else(|| die(&format!("{op} needs {what}")))
    };
    let result = match op {
        "open" => client::open(&addr, pos(0, "a session name"), &opts),
        "feed" => {
            let session = pos(0, "a session name");
            let path = pos(1, "a history path (or '-' for stdin)");
            if path == "-" {
                let mut bytes = Vec::new();
                std::io::Read::read_to_end(&mut std::io::stdin().lock(), &mut bytes)
                    .unwrap_or_else(|e| die(&format!("cannot read stdin: {e}")));
                client::feed_bytes(&addr, session, &bytes, events)
            } else {
                client::feed_path(&addr, session, path, events)
            }
        }
        "finish" => client::finish(&addr, pos(0, "a session name")),
        "checkpoint" => {
            client::checkpoint(&addr, pos(0, "a session name"), pos(1, "a snapshot path"))
        }
        "restore" => {
            client::restore(&addr, pos(0, "a session name"), pos(1, "a snapshot path"), shards)
        }
        "stats" => client::stats(&addr, pos(0, "a session name")),
        "list" => client::list(&addr),
        "ping" => client::ping(&addr),
        "shutdown" => client::shutdown(&addr),
        other => die(&format!("unknown client op '{other}'\n{CLIENT_USAGE}")),
    };
    match result {
        Ok(reply) => print_reply(op, &reply),
        Err(e) => {
            eprintln!("client {op} failed: {e}");
            std::process::exit(1);
        }
    }
}
