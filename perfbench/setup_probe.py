"""Set-up cost a user pays on every invocation: start an interpreter,
import ctcprobe and load and validate a config.  run.py times this
script as a whole, from process start to exit."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from ctcprobe import cli  # noqa: E402

cli.load_config(sys.argv[1])
