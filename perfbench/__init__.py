"""Real-work benchmark of the AdaParse reproduction (see README.md)."""
