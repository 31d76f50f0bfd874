#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <dm|deepchain|census|fabric> \\
        --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (its own Cargo workspace, depending on
the repository crates by path) in release mode into `CARGO_TARGET_DIR`
(default `.bench_build`), prints a `PLATFORM {...}` line describing the
machine, then runs the benchmark. The benchmark's last stdout line is
the result object. Exits non-zero without a result when the repository
sources are missing or the build fails.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def mem_total_mib():
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                return int(line.split()[1]) // 1024
    except OSError:
        pass
    return 0


def filesystem_of(path):
    """Type of the filesystem holding `path` (longest mount prefix)."""
    path = str(path.resolve())
    best, fstype = "", "unknown"
    try:
        for line in Path("/proc/mounts").read_text().splitlines():
            fields = line.split()
            if len(fields) < 3:
                continue
            mount = fields[1]
            inside = path == mount or path.startswith(mount.rstrip("/") + "/")
            if inside and len(mount) > len(best):
                best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def rustc_version():
    try:
        out = subprocess.run(["rustc", "-V"], capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        print(f"perfbench: no repository sources under {ROOT}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = Path.cwd() / target
    env["CARGO_TARGET_DIR"] = str(target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(MANIFEST)],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    scratch = target / "perfbench-tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    platform = {
        "cores": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "mem_mib": mem_total_mib(),
        "rustc": rustc_version(),
        "profile": "release",
        "checkpoint_fs": filesystem_of(scratch),
    }
    print("PLATFORM " + json.dumps(platform, sort_keys=True), flush=True)
    run = subprocess.run([str(target / "release" / "perfbench"), *sys.argv[1:]], env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
