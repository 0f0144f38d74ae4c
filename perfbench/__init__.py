"""perfbench: the repository's performance instrument (see README.md)."""
