//! Command-line entry of the benchmark; see `NOTES.md`.
//!
//! A run starts [`PROCESSES`] processes of this executable in turn (with
//! the internal `--process` flag), each running [`ROUNDS_PER_PROCESS`]
//! rounds, and merges their reports.

use std::io::Read;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use perfbench::report::{result_json, END_TO_END, PER_LAYER};
use perfbench::workloads::{
    combine, one_line, run_round, Opts, Outcome, Workload, PROCESSES, ROUNDS, ROUNDS_PER_PROCESS,
};

/// A run that has not finished by now is stopped and reported as failed,
/// so a hang never outlives the 180 s a run may take.
const WATCHDOG: Duration = Duration::from_secs(170);

const USAGE: &str =
    "usage: perfbench --workload <kv|kv-ckpt|cf|all> --seed <n> --seconds <1..=60> --trace <0|1>";

struct Args {
    /// `None` runs every workload.
    workload: Option<Workload>,
    opts: Opts,
    /// Set in one of a run's processes.
    process: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut parsed = Args {
        workload: None,
        opts: Opts {
            seed: 1,
            seconds: 30,
            traced: false,
        },
        process: None,
    };
    let mut all = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" if value == "all" => all = true,
            "--workload" => parsed.workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => parsed.opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.opts.seconds = value.parse().map_err(|_| bad())?;
                if !(1..=60).contains(&parsed.opts.seconds) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.opts.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--process" => {
                let p: u64 = value.parse().map_err(|_| bad())?;
                if p >= PROCESSES {
                    return Err(bad());
                }
                parsed.process = Some(p);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if parsed.workload.is_none() && !all {
        return Err("--workload is required".into());
    }
    if parsed.process.is_some() && parsed.workload.is_none() {
        return Err("--process needs one workload".into());
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The scheduler and engine are pinned to the defaults: an environment
    // override would silently swap the program being measured.
    for var in ["SDG_SCHED", "SDG_ENGINE"] {
        if std::env::var_os(var).is_some() {
            eprintln!("refusing to run with {var} set: unset it to measure the default program");
            return ExitCode::from(2);
        }
    }
    match (args.workload, args.process) {
        (Some(w), Some(p)) => process_rounds(w, args.opts, p),
        (Some(w), None) => run_one(w, args.opts),
        (None, _) => run_all(args.opts),
    }
}

/// One process of a run: its rounds, reported on stdout as a `round <i>`
/// line followed by the round's [`Outcome::to_lines`].
fn process_rounds(workload: Workload, opts: Opts, process: u64) -> ExitCode {
    let first = process * ROUNDS_PER_PROCESS;
    for round in first..first + ROUNDS_PER_PROCESS {
        println!("round {round}");
        match run_round(workload, opts, round) {
            Ok(out) => print!("{}", out.to_lines()),
            Err(abort) => {
                println!("fail 1 {}", one_line(abort.0));
                // Threads stuck in the runtime are not joined; exiting ends
                // them.
                std::process::exit(1);
            }
        }
    }
    ExitCode::SUCCESS
}

/// Runs `cmd` until it exits or `deadline` passes, then stops it and
/// waits for it. Returns its stdout and whether it exited successfully.
fn run_process(mut cmd: Command, deadline: Instant) -> (String, bool) {
    let mut child = match cmd.stdout(Stdio::piped()).spawn() {
        Ok(child) => child,
        Err(e) => return (format!("fail 1 could not start a process: {e}\n"), false),
    };
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        text
    });
    let ok = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status.success(),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                break false;
            }
        }
    };
    let mut text = reader.join().expect("stdout reader panicked");
    if Instant::now() >= deadline {
        text += &format!("fail 1 run still going after {WATCHDOG:?}; stopped\n");
    }
    (text, ok)
}

fn run_one(workload: Workload, opts: Opts) -> ExitCode {
    let list = if opts.traced { PER_LAYER } else { END_TO_END };
    let deadline = Instant::now() + WATCHDOG;
    println!(
        "workload {} seed {} seconds {} trace {} rounds {ROUNDS} in {PROCESSES} processes (available parallelism {})",
        workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.traced),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            println!("cannot find own executable: {e}");
            println!("{}", result_json(false, 1, 1, &Default::default(), list));
            return ExitCode::FAILURE;
        }
    };
    let mut rounds = Vec::with_capacity(ROUNDS as usize);
    let mut all_ok = true;
    for process in 0..PROCESSES {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload.name()])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.traced { "1" } else { "0" }])
            .args(["--process", &process.to_string()]);
        let (text, ok) = run_process(cmd, deadline);
        // Each `round <i>` line starts one round's report.
        let mut reports: Vec<String> = Vec::new();
        for line in text.lines() {
            match line.strip_prefix("round ") {
                Some(_) => reports.push(String::new()),
                None if reports.is_empty() => reports.push(format!("{line}\n")),
                None => {
                    let last = reports.last_mut().expect("not empty");
                    last.push_str(line);
                    last.push('\n');
                }
            }
        }
        let mut outs: Vec<Outcome> = reports.iter().map(|r| Outcome::parse(r)).collect();
        if !ok {
            all_ok = false;
            match outs.last_mut() {
                Some(last) if !last.failures.is_empty() => {}
                Some(last) => last.failures.push(("process failed".into(), 1)),
                None => outs.push(Outcome::parse("fail 1 process failed")),
            }
        }
        rounds.extend(outs);
        if !all_ok {
            // Later processes would measure after a failure; stop here.
            break;
        }
    }
    let out = combine(rounds, opts.traced);
    report(&out, list);
    let (correct, failed) = (out.correct() && all_ok, out.failed());
    println!(
        "{}",
        result_json(correct, out.attempted.max(1), failed, &out.metrics, list)
    );
    if correct && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints the merged rounds for a reader: settings, metrics with units,
/// notes and failures.
fn report(out: &Outcome, list: &[(&str, &str)]) {
    for s in &out.settings {
        println!("setting {s}");
    }
    for (name, unit) in list {
        let v = out.metrics.get(name).unwrap_or(0.0);
        println!("metric {name} {v} {unit}");
    }
    for n in &out.notes {
        println!("note {n}");
    }
    for (what, n) in out.failures.iter().chain(&out.wrong) {
        println!("failed {n} × {what}");
    }
    println!(
        "{} failed of {} attempted; outputs {}",
        out.failed(),
        out.attempted,
        if out.correct() { "correct" } else { "WRONG" }
    );
}

/// Runs every workload, each in its own process, and prints their
/// results, then one line that holds every workload's result line.
fn run_all(opts: Opts) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut lines = Vec::new();
    for w in Workload::ALL {
        let child = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.traced { "1" } else { "0" }])
            .output();
        match child {
            Ok(o) => {
                let stdout = String::from_utf8_lossy(&o.stdout);
                print!("{stdout}");
                ok &= o.status.success();
                let last = stdout.lines().last().unwrap_or("null").to_string();
                lines.push(format!("\"{}\": {last}", w.name()));
            }
            Err(e) => {
                println!("{}: could not start: {e}", w.name());
                ok = false;
            }
        }
    }
    println!("{{{}}}", lines.join(", "));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
