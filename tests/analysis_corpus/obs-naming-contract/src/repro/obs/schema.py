SPANS = []

COUNTERS = [  # finding
    "fixture.used.hits",
    "fixture.orphan.count",
]

GAUGES = []

HISTOGRAMS = []

DERIVED = {}
