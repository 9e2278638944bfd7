"""What each session holds in the protocol engine, told from the trace alone.

A shadow of the engines' per-session records that never looks inside them:
it subscribes to the four storage events every collector and tree state
passes through — ``collector-assigned`` / ``collector-released`` and
``tree-created`` / ``tree-released``, each carrying ``user`` and ``query`` —
and keeps, per ``(user_id, query_id)``, the pickup indices with a live
collector and the number of tree states created and not yet released.
``tests/test_session_ownership.py`` holds the engine's own answers
(``live_collector_periods(key)``, ``tree_state_count(key)``,
``active_sessions()``) against it after every step of an interleaving.

A re-elected collector keeps its ``k`` and a tree state moved to the heir
is neither created nor released, so re-election leaves the shadow as it
was — which is what makes "the moved state was filed where the engine
cannot find it" visible as a difference.
"""

from collections import Counter, defaultdict


class EngineSessionShadow:
    def __init__(self, tracer):
        self.collectors = defaultdict(set)  # session key -> live pickup indices
        self.trees = Counter()  # session key -> created minus released
        tracer.subscribe("collector-assigned", self._on_assigned)
        tracer.subscribe("collector-released", self._on_released)
        tracer.subscribe("tree-created", lambda record: self._on_tree(record, +1))
        tracer.subscribe("tree-released", lambda record: self._on_tree(record, -1))

    @staticmethod
    def _key(record):
        return (record["user"], record["query"])

    def _on_assigned(self, record):
        self.collectors[self._key(record)].add(record["k"])

    def _on_released(self, record):
        self.collectors[self._key(record)].discard(record["k"])

    def _on_tree(self, record, step):
        self.trees[self._key(record)] += step

    def live_collector_periods(self, key):
        return sorted(self.collectors[key])

    def tree_state_count(self, key):
        return self.trees[key]

    def active_sessions(self):
        keys = {key for key, ks in self.collectors.items() if ks}
        keys.update(key for key, count in self.trees.items() if count)
        return sorted(keys)
