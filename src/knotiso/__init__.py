"""knotiso: compactly-supported ambient isotopies of 3-space, countable
move schedules, and numerical convergence / injectivity probes."""
