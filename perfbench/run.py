#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The Go module in this directory imports the repository's packages through a
`replace lfsc => ../` directive, so it only builds inside a full checkout.
Everything the build writes (compiler cache, binary, temporary files) goes
under `.bench_build/` at the repository root, and the benchmark writes its
checkpoint directories there too.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomodcache"),
                     ("GOPATH", "gopath"), ("GOTMPDIR", "tmp"), ("TMPDIR", "tmp"),
                     ("HOME", "home"), ("XDG_CONFIG_HOME", "config")):
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    env["GOFLAGS"] = "-mod=mod"
    env["GOTOOLCHAIN"] = "local"
    env["GOTELEMETRY"] = "off"
    env["GOENV"] = "off"
    env["GOPROXY"] = "off"
    return env


def main():
    env = go_env()
    binary = os.path.join(BUILD, "perfbench")
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                               stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                               timeout=840)
    except (OSError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write("perfbench: build failed: %s\n" % exc)
        return 1
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed:\n" + build.stdout.decode(errors="replace"))
        return 1
    os.chdir(ROOT)
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
