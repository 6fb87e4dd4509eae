#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload fig13 --seed 1 --seconds 12 --trace 0

The Go program in this directory is built into the build directory
($CARGO_TARGET_DIR, default .bench_build) with every Go cache and temporary
directory kept inside it, then run with the given arguments. Its standard
output ends with the one-line JSON result. The exit code is the program's;
a failed build or a run past its time limit exits non-zero without a result.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_LIMIT_S = 850
RUN_LIMIT_S = 175


def sandboxed_env(build):
    """Environment that keeps the Go toolchain's files inside build."""
    env = dict(os.environ)
    tmp = os.path.join(build, "tmp")
    home = os.path.join(build, "home")
    for d in (tmp, home):
        os.makedirs(d, exist_ok=True)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "XDG_CACHE_HOME": os.path.join(home, ".cache"),
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
    })
    return env


def run(cmd, limit, **kw):
    """Run cmd to completion or kill it at limit seconds; return its code.

    A SIGTERM or SIGINT to this script kills the child too, and the script
    waits for it before exiting.
    """
    proc = subprocess.Popen(cmd, **kw)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    old = {s: signal.signal(s, stop) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        return proc.wait(timeout=limit)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run.py: {cmd[0]} exceeded {limit}s", file=sys.stderr)
        return 124
    finally:
        for s, handler in old.items():
            signal.signal(s, handler)


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("run.py: no go.mod at the checkout root; nothing to benchmark",
              file=sys.stderr)
        return 2
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                            os.path.join(ROOT, ".bench_build"))
    env = sandboxed_env(build)
    binary = os.path.join(build, "perfbench")
    code = run(["go", "build", "-o", binary, "."], BUILD_LIMIT_S,
               cwd=HERE, env=env, stdout=sys.stderr)
    if code != 0:
        print(f"run.py: build failed ({code})", file=sys.stderr)
        return code or 1
    sys.stdout.flush()
    return run([binary, "-root", ROOT, "-work", os.path.join(build, "work")]
               + sys.argv[1:], RUN_LIMIT_S, cwd=HERE, env=env)


if __name__ == "__main__":
    sys.exit(main())
