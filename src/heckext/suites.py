"""The names of the verification suites, in the order `verify all` runs
them.  verify.py binds each name to its function suite_<name>; the CLI
reads the names from here, so a command that runs no suite does not
import verify.py."""

SUITE_NAMES = ("relators", "kernel", "sections", "assoc", "involutions", "rightaction",
               "duality", "presentation", "cup-independent", "e0")
