"""Network substrate: XMPP-like switchboard, transports, reliable delivery."""
