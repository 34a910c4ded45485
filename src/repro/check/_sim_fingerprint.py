"""Generated by `python -m repro check --update-fingerprint`.

Records the AST fingerprint of the sim-semantics sources as of
the last SIM_VERSION bump; lint rule RC105 compares against it.
"""

SIM_VERSION = 3

FINGERPRINT = {
    'sim/engine.py': '2fa5e43f5e9da2d164baf78ddf0111a5c75c3374df6f99c024b1aec140d6acee',
    'sim/primitives.py': '162022d569036dcf422432b10a2a0521b7929bb48afd4b58f0ca8a4e99616725',
    'sim/syncobj.py': 'f3e692af0fd6c9ed677d06941d87024557a5269695a78101f928e1ccfab4507d',
    'sim/resources.py': '958a15303242ce15ca235ecfd0589496f7730ce7755841373da2d409b5241b0e',
    'node.py': '7e3e4fcd6438befc989d14656f24f04bcbe99f7f11ad41739484415b73987cb1',
    'memory/model.py': 'a6d2b7aa060150edc3bc6d294626df2046085cc2cde8a17ebfdb929d4f42ba60',
    'memory/cache.py': '81e61e0c8d717ec26afd9db8e652f5d1dc8e330a1a3e24740df86eb8b0ad80d6',
    'sync/flags.py': '013a59e28d806f373db3da1b4af3c949735e93c7aff6499e8ade5adc6992dad1',
}
