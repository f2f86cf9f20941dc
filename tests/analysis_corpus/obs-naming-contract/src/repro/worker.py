from .obs.metrics import counter_add


def tick():
    counter_add("fixture.used.hits", 1)
    counter_add("fixture.undeclared.count", 1)  # finding
