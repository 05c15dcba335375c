"""Known-bad hot-path corpus: every PERF rule must fire here.

``SemanticBus.publish`` matches the hot-entry registry, so everything
below runs "once per packet" as far as the analyzer is concerned.  Each
marked line is a deliberate violation; the golden expectation file pins
exactly these findings.  This file is analyzed, never imported.
"""


class SemanticBus:
    def __init__(self):
        self._subs = []
        self.default_filter = "role == 'medic'"

    def publish(self, message):
        # PERF004 (b): uncached selector construction from variable text
        fallback = Selector(self.default_filter)
        blob = bytearray()
        for frag in message.frags:
            # the accumulation is the loop's own work, not a finding
            blob.extend(frag)
        # PERF001: O(population) scan once per published message
        for sub in self._subs:
            # per-candidate state comes from the candidate: not a finding
            headers = sub.headers
            # PERF004 (a): loop-invariant pure call, hoistable
            plan = compile_selector(message.selector_text)
            sub.deliver(blob, headers, plan, fallback)
