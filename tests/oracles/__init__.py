"""Reference implementations the differential suites and benchmarks pin
the runtime against.

The runtime in ``src/`` has one engine per layer.  The procedures it
replaced are kept here, verbatim in behaviour, as oracles:

* :mod:`tests.oracles.fd` — the quadratic frozenset closure and everything
  built on it (``minimize``, ``minimum_cover``, ``equivalent``,
  ``project_fds``, ``candidate_keys``); the bitset engine of
  :mod:`repro.relational.bitset` must return *identical* results;
* :mod:`tests.oracles.implication` — the linear-scan key-implication
  engine, answer-for-answer equal to the indexed
  :class:`~repro.keys.implication.ImplicationEngine`;
* :mod:`tests.oracles.containment` — the per-call recursive path
  containment procedure and a context manager routing every runtime
  ``contains`` call through it;
* :mod:`tests.oracles.shred` — the rule shredder that rebuilds each anchor
  subtree as a DOM and re-evaluates every variable's path; the
  event-native :class:`~repro.transform.stream.RuleStreamer` must emit
  *the same rows in the same order* and equal shard results;
* :mod:`tests.oracles.dom_parser` — the recursive-descent DOM parser;
  ``parse_document`` and ``parse_fragment``, which build their trees from
  the event tokenizer, must return *the same trees* (node ids, labels,
  values) and raise *the same errors* (type, message, offset);
* :mod:`tests.oracles.ddl` — the DDL key partition on name sets (greedy
  canonical-key reduction and key-FD test through name-level closures)
  and a context manager routing ``compile_table_ddl`` through it; the
  mask-level partition must compile *the same* ``TableDDL``.

Nothing in ``src/`` imports this package.
"""
