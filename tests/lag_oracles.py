"""Brute-force oracles for the third-order lag cache of `flattopspec.spectra`:
an orbit's representative as the largest of its six images, and a sample
cumulant summed as one product of lagged copies of the series."""


def six_image_lag(t1, t2):
    """The representative of the orbit of (t1, t2) under the six third-order
    cumulant symmetries: the largest of its images in tuple order."""
    return max((t1, t2), (t2, t1), (-t1, t2 - t1), (t2 - t1, -t1),
               (t1 - t2, -t2), (-t2, t1 - t2))


class DirectCumulant:
    """The third-order sample cumulant of one series at a lag pair: the
    product of its three lagged copies over their overlap, summed, over N."""

    def __init__(self, series):
        self.y = series.centered()
        self.N = series.n

    def __call__(self, t1, t2):
        N, y = self.N, self.y
        alpha = min(0, t1, t2)
        n_terms = N - (max(0, t1, t2) - alpha)
        if n_terms < 1:
            return 0.0
        p = (y[t1 - alpha:t1 - alpha + n_terms]
             * y[t2 - alpha:t2 - alpha + n_terms]
             * y[-alpha:-alpha + n_terms])
        return float(p.sum() / N)
