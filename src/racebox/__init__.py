"""Thread-modular interval analyzer and concrete oracles for a small
concurrent language with priorities, mutexes, and a real-time scheduler."""
