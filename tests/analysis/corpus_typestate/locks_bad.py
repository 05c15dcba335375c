"""Known-bad lock revocation: TSP003."""


class Session:
    def __init__(self):
        self.locks = LockManager()  # noqa: F821

    def grab(self, key, client):
        return self.locks.acquire(key, client)

    def on_event(self, event):
        # departed client's locks are never revoked
        if isinstance(event, LeaveEvent):  # noqa: F821
            self.roster_remove(event.client_id)

    def roster_remove(self, cid):
        pass
