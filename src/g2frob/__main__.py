"""`python -m g2frob`: the command-line front end of `cli`."""
from .cli import main

raise SystemExit(main())
