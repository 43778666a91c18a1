"""`python -m ebpe`: the `ebpe` command (`ebpe.cli.main`)."""
from .cli import main
raise SystemExit(main())
