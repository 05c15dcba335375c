"""Known-good hot-path corpus: the sanctioned twin of every PERF rule.

``RtpReassembler.ingest`` is a registered hot entry, so this code is in
scope for every PERF rule — and must produce zero findings: shortlists
instead of population scans (PERF001) and hoisted / cache-layer selector
compilation (PERF004).  This file is analyzed, never imported.
"""


class RtpReassembler:
    def __init__(self):
        self._index = {}
        self.default_filter = "role == 'medic'"

    def ingest(self, message):
        # parse once per call, through the cache layer: clean PERF004
        fallback = compile_selector(self.default_filter)
        # hoisted out of the loop: clean PERF004 (a)
        plan = compile_selector(message.selector_text)
        # index shortlist, not the population: clean PERF001
        shortlist = self._index.get(message.key, ())
        for sub in shortlist:
            sub.deliver(message.payload, plan, fallback)
