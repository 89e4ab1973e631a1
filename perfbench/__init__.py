"""One benchmark for promises and call-streams (see README.md)."""
