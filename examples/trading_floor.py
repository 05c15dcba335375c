#!/usr/bin/env python
"""Electronic trading: group formation and semantic filtering.

The paper's bidding example (Sec. 2): "a person interested in purchasing
modems would find [a] computer peripherals group to be of coarse
granularity" — so members refine the group with interest selectors
instead of splitting the session.  Bids are semantic messages; each
trader's profile decides which auctions it follows, at run time, with no
roster anywhere.

Run:  python examples/trading_floor.py
"""

from repro import ClientProfile, CollaborationFramework
from repro.messaging.message import SemanticMessage


def bid(client, item: str, category: str, price: float) -> None:
    """Publish a bid: a chat event whose *message headers* carry the offer.

    Interests evaluate the headers (category, price); accepting clients
    render the chat body in their chat area.
    """
    from repro.core.events import ChatEvent

    event = ChatEvent(author=client.name, text=f"{item} @ {price} ({category})")
    msg = SemanticMessage.create(
        sender=client.name,
        selector=client.session.selector_text(),
        headers={"topic": "auction", "item": item, "category": category,
                 "price": price},
        body=event.to_body(),
        kind="chat",
    )
    client.endpoint.publish(msg)


def main() -> None:
    fw = CollaborationFramework(
        "peripherals-auction",
        objective="auction surplus computer peripherals",
        result_space=("chat",),
    )

    # the modem buyer narrows the coarse 'peripherals' group semantically
    modem_buyer = fw.add_wired_client(
        "modem-buyer",
        profile=ClientProfile(
            "modem-buyer",
            {"session": "peripherals-auction", "role": "buyer",
             "client_id": "modem-buyer"},
            interest="category == 'modems' and price <= 50 or kind == 'join'",
        ),
    )
    # a budget-limited generalist
    bargain_hunter = fw.add_wired_client(
        "bargain-hunter",
        profile=ClientProfile(
            "bargain-hunter",
            {"session": "peripherals-auction", "role": "buyer",
             "client_id": "bargain-hunter"},
            interest="price <= 20 or kind == 'join'",
        ),
    )
    # the auctioneer sees everything
    auctioneer = fw.add_wired_client("auctioneer")
    for c in (modem_buyer, bargain_hunter, auctioneer):
        c.join()
    fw.run_for(0.5)

    # --- a round of offers -------------------------------------------------
    bid(auctioneer, "56k-modem", "modems", 45.0)
    bid(auctioneer, "laser-printer", "printers", 120.0)
    bid(auctioneer, "ps2-mouse", "input", 8.0)
    bid(auctioneer, "isdn-modem", "modems", 75.0)  # over the buyer's cap
    fw.run_for(0.5)

    modem_bids = [l for l in modem_buyer.chat.transcript if "@" in l]
    bargain_bids = [l for l in bargain_hunter.chat.transcript if "@" in l]
    print("modem-buyer sees:    ", modem_bids)
    print("bargain-hunter sees: ", bargain_bids)
    # each interest admits exactly the offers it names, nothing over its cap
    assert modem_bids == ["auctioneer: 56k-modem @ 45.0 (modems)"]
    assert bargain_bids == ["auctioneer: ps2-mouse @ 8.0 (input)"]

    # --- interests change at run time: no re-registration -------------------
    print("\nbargain-hunter raises the budget to 100 — locally, instantly:")
    bargain_hunter.profile.set_interest("price <= 100")
    bid(auctioneer, "trackball", "input", 35.0)
    fw.run_for(0.5)
    assert bargain_hunter.chat.transcript[-1] == "auctioneer: trackball @ 35.0 (input)"
    print("bargain-hunter now sees:", bargain_hunter.chat.transcript[-1])

    # --- concurrency control: two simultaneous bids on one item -------------
    modem_buyer.draw("lot-56k-modem", (45.0,))     # bid recorded as shared state
    bargain_hunter.draw("lot-56k-modem", (46.0,))  # concurrent counter-bid
    fw.run_for(1.0)
    winner = auctioneer.whiteboard.objects().get("lot-56k-modem")
    conflicts = auctioneer.whiteboard.conflicts
    print(f"\nconcurrent bids arbitrated deterministically: winning={winner}")
    print("no information lost — losing bid retained in the conflict history"
          f" ({conflicts} conflict(s) archived on the auctioneer's replica)")


if __name__ == "__main__":
    main()
