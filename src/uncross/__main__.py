"""``python -m uncross``: the ``uncross`` command line."""
from .cli import main

main(prog_name="uncross")
