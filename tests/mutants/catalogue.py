"""The mutation catalogue: small breaks of the fast paths that the tests
must catch.  Each entry replaces one exact text of one source file, which
must occur there exactly once, and names the test files of which at least
one must then fail.  ``run.py`` applies them one at a time."""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    # The first walk queues a seed of need 0 twice: a list seed is walked
    # twice, and a lane flag cleared twice borrows from its neighbour's.
    Mutant(
        "first-queue-repeats-eligible-seeds",
        "src/controlsets/scs.py",
        "queue += {i for i, a in enumerate(on) if a >= 0}.difference(queue)",
        "queue += {i for i, a in enumerate(on) if a >= 0}",
        ("tests/test_scs.py",),
    ),
    # A pendant is never closed with its owner: the list closure falls short.
    Mutant(
        "fold-closes-no-pendant",
        "src/controlsets/scs.py",
        "                closed |= folds[j]\n",
        "",
        ("tests/test_scs.py",),
    ),
    # A player with one out-arc folds even when others listen to it, so a
    # listener misses the arc update of its flip.
    Mutant(
        "fold-ignores-listeners",
        "src/controlsets/coordination.py",
        "if not heard or len(heard) == 1 and heard[0][0] == j:",
        "if True:",
        ("tests/test_scs.py",),
    ),
    # Pairs of kept players that leave a set alone are closed too: their
    # sets are supersets of a single's, and the family is no antichain.
    Mutant(
        "blocking-pairs-over-every-kept-player",
        "src/controlsets/scs.py",
        "for x in bare for y, _ in graph.rows[x] if y in bare}",
        "for x in kept for y, _ in graph.rows[x] if y in kept}",
        ("tests/test_scs.py",),
    ),
)
