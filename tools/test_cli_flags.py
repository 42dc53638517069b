#!/usr/bin/env python3
"""Bad flag values on the service_soak, net_soak and abenc_serve CLIs.

Run through ctest (registered as `cli_flags_test` with the three built
binaries as argv[1..3]). All three document exit 2 for bad usage: a
negative, trailing text, a value past the flag's range or a fraction
outside [0, 1] must exit 2 with the usage line — never wrap ("-1" as
2^64-1), stop at the trailing text ("2x" as 2) or die on a signal.
"""

import subprocess
import sys
import unittest
from pathlib import Path

# Count flags per binary; the first three of each are unsigned ints, so
# 99999999999 is past their range.
COUNTS = {
    "service_soak": """--shards --parallelism --clients --sessions --length
        --seed --chunk --queue-cap --watermark --evict-idle --budget""",
    "net_soak": """--shards --parallelism --clients --sessions-per-client
        --length --seed --chunk --queue-cap --watermark --fuzz
        --io-timeout-ms""",
    "abenc_serve": """--shards --parallelism --read-timeout-ms
        --write-timeout-ms --max-frame-bytes --fault-length""",
}
FRACTIONS = {
    "service_soak": "--fault-fraction --renegotiate-fraction "
                    "--columnar-fraction",
    "net_soak": "--fault-fraction --renegotiate-fraction "
                "--disconnect-fraction --pipeline-fraction",
    "abenc_serve": "",
}


class CliFlagsTest(unittest.TestCase):
    tools = {}  # name -> path, set in main() from argv

    def expect_usage(self, tool, *argv):
        with self.subTest(tool=tool, argv=argv):
            result = subprocess.run([str(self.tools[tool]), *argv],
                                    capture_output=True, text=True,
                                    timeout=60)
            self.assertGreaterEqual(result.returncode, 0,
                                    f"killed by signal {-result.returncode}")
            self.assertEqual(result.returncode, 2, result.stderr)
            self.assertIn(f"{tool}: ", result.stderr)
            self.assertIn("usage:", result.stderr)

    def test_bad_counts_exit_two(self):
        for tool, flags in COUNTS.items():
            flags = flags.split()
            for flag in flags:
                for value in ["-1", "2x", "", "+3"]:
                    self.expect_usage(tool, flag, value)
                    self.expect_usage(tool, f"{flag}={value}")
            for flag in flags[:3]:
                self.expect_usage(tool, flag, "99999999999")

    def test_bad_fractions_and_budgets_exit_two(self):
        for tool, flags in FRACTIONS.items():
            flags = flags.split()
            for flag in flags:
                for value in ["-0.1", "1.5", "0.5x", "nan", ""]:
                    self.expect_usage(tool, flag, value)
            if flags:
                for value in ["-1", "1s", "inf", "nan"]:
                    self.expect_usage(tool, "--time-budget-s", value)

    def test_missing_value_and_unknown_flag_exit_two(self):
        for tool in self.tools:
            self.expect_usage(tool, "--shards")
            self.expect_usage(tool, "--no-such-flag")

    def test_abenc_serve_zero_shards_exits_two(self):
        # In range for the parse but refused by the service: a clean
        # exit 2, not an abort.
        result = subprocess.run([str(self.tools["abenc_serve"]), "--shards",
                                 "0"], capture_output=True, text=True,
                                timeout=60)
        self.assertEqual(result.returncode, 2, result.stderr)
        self.assertIn("shards", result.stderr)


def main():
    if len(sys.argv) != 1 + len(COUNTS):
        print("usage: test_cli_flags.py <service_soak> <net_soak> "
              "<abenc_serve>", file=sys.stderr)
        return 2
    for name, path in zip(COUNTS, sys.argv[1:]):
        CliFlagsTest.tools[name] = Path(path).resolve()
    unittest.main(argv=[sys.argv[0]], verbosity=2)


if __name__ == "__main__":
    sys.exit(main())
