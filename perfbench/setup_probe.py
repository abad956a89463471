"""Time one cold set-up of flashlife in a fresh interpreter.

Usage: python3 setup_probe.py <src dir> <config file>

Prints one JSON line: ``import_s`` for importing the package with its CLI
(numpy and scipy included), ``config_s`` for loading the config file,
building the device and policy objects and parsing a CLI command line,
both rescaled to the reference host speed (see hostspeed.py), and the
host's slowdown ``factor``. Manifests are written only by the CLI
commands, so they are not timed.
"""

import json
import sys
import time

import hostspeed


def main(src: str, conf: str) -> None:
    with hostspeed.SpeedProbe(interval=0.01) as probe:
        start = time.perf_counter()
        sys.path.insert(0, src)
        import flashlife.cli
        from flashlife import config

        imported = time.perf_counter()
        values = config.load_config(conf)
        config.device_params_from(values)
        config.policy_config_from(values)
        flashlife.cli.build_parser().parse_args(["lifetime", "--config", conf])
        done = time.perf_counter()
    factor = probe.factor(start, done)
    print(json.dumps({
        "import_s": (imported - start) / factor,
        "config_s": (done - imported) / factor,
        "factor": factor,
    }))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
