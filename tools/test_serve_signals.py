#!/usr/bin/env python3
"""abenc_serve stops on SIGTERM and on SIGINT, and sleeps until then.

Run through ctest (registered as `serve_signals_test` with the built
abenc_serve as argv[1]). Each run starts the server on an ephemeral
port, checks that its main thread makes no voluntary context switch
while it waits (it blocks in sigwait, with no timer), sends the signal,
and expects exit status 0 and the stop line within 2 s.
"""

import signal
import subprocess
import sys
import time
import unittest
from pathlib import Path


def voluntary_switches(pid):
    """The main thread's voluntary context switches, or None off Linux."""
    status = Path(f"/proc/{pid}/task/{pid}/status")
    if not status.exists():
        return None
    for line in status.read_text().splitlines():
        if line.startswith("voluntary_ctxt_switches:"):
            return int(line.split()[1])
    return None


class ServeSignalsTest(unittest.TestCase):
    serve = None  # path, set in main() from argv

    def stop_with(self, signum):
        server = subprocess.Popen(
            [str(self.serve), "--endpoint", "tcp:127.0.0.1:0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            self.assertIn("abenc_serve: listening on tcp:",
                          server.stdout.readline())
            time.sleep(0.2)  # the line is printed just before sigwait
            before = voluntary_switches(server.pid)
            time.sleep(0.5)
            after = voluntary_switches(server.pid)
            if before is not None and after is not None:
                self.assertEqual(after, before,
                                 "the idle main thread woke up")
            server.send_signal(signum)
            out, err = server.communicate(timeout=2)
        finally:
            if server.poll() is None:
                server.kill()
                server.communicate()
        self.assertEqual(server.returncode, 0, err)
        self.assertIn("abenc_serve: stopped (", out)
        self.assertIn(" frames out, ", out)

    def test_sigterm_stops_cleanly(self):
        self.stop_with(signal.SIGTERM)

    def test_sigint_stops_cleanly(self):
        self.stop_with(signal.SIGINT)


def main():
    if len(sys.argv) != 2:
        print("usage: test_serve_signals.py <abenc_serve>", file=sys.stderr)
        return 2
    ServeSignalsTest.serve = Path(sys.argv[1]).resolve()
    unittest.main(argv=[sys.argv[0]], verbosity=2)


if __name__ == "__main__":
    sys.exit(main())
