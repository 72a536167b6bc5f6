"""Tasks, decks and the failure type shared by the workloads.

A workload builds a *deck*: a fixed list of task shapes whose concrete
parameters are drawn from the seeded generator.  Decks are shuffled, and a
measured run consists of whole decks, so every run of a workload has the
same mix of task shapes whatever the seed and wherever its time runs out;
the seed changes only the concrete inputs.  That keeps medians comparable
across seeds.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable


class WrongOutput(Exception):
    """An output that disagrees with its reference answer."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise WrongOutput(message)


@dataclass
class Task:
    """One seeded unit of work.  ``run`` is the timed call into qheis;
    ``check`` receives its return value and raises ``WrongOutput`` when it
    disagrees with a reference that ``run`` did not produce."""

    kind: str
    params: dict
    run: Callable[[], Any]
    check: Callable[[Any], None]

    def label(self) -> str:
        args = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"{self.kind}({args})"


def decks(make_deck: Callable[[random.Random, int], list], rng: random.Random):
    """Endless stream of fresh seeded decks, each shuffled.  ``make_deck``
    gets the generator and the deck's number in this stream, so the inputs
    of a stream depend on its seed only."""
    for index in itertools.count():
        deck = make_deck(rng, index)
        rng.shuffle(deck)
        yield deck
