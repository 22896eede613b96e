"""Fresh-interpreter set-up probe.

    python3 perfbench/probe.py CONFIG SEED [LAYERQG_ARGV...]

Imports layerqg, parses CONFIG, realizes it with SEED and builds a
`Stepper`, then prints one JSON line with the import time.  The parent
times the interval from spawning this process to reading that line.
With a layerqg argv after SEED, the probe then runs that command once
and prints a second line with its peak resident set size.

The peak is VmHWM, the high-water mark of this program image.  The
`ru_maxrss` a parent reads for a child also counts the parent's own
pages that the child held between fork and exec, so it would report the
benchmark's size rather than the program's.
"""

import json
import sys
import time


def main(argv):
    start = time.perf_counter()
    import layerqg.cli
    from layerqg.dynamics import Stepper
    from layerqg.runconfig import parse_config, realize
    imported = time.perf_counter()
    settings, _ = parse_config(argv[0])
    Stepper(realize(settings, int(argv[1])))
    print(json.dumps({"import_s": imported - start}), flush=True)
    if len(argv) > 2:
        code = layerqg.cli.main(argv[2:])
        print(json.dumps({"peak_rss_mb": peak_rss_mb()}), flush=True)
        return code
    return 0


def peak_rss_mb():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
