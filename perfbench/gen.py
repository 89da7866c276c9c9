"""Seeded input generators.

Everything the workloads feed to the library comes from here, so the same
seed always gives the same inputs.  Nothing is downloaded.
"""

# Keys are dense in a range 8x the map size, as in the library's own CLI
# bench, so delta-coded gaps stay small; values are full 63-bit words.
KEY_SPACE_FACTOR = 8
VALUE_BITS = 63

# R-MAT quadrant probabilities (Chakrabarti et al.); a > d gives the skewed,
# hub-heavy degree distribution of web and social graphs.
RMAT_A, RMAT_B, RMAT_C = 0.57, 0.19, 0.19


def pairs(rng, n, key_space):
    """n entries with distinct random keys below key_space."""
    keys = rng.sample(range(key_space), n)
    return [(k, rng.getrandbits(VALUE_BITS)) for k in keys]


class RMat:
    """Directed R-MAT edges over 2**scale vertex ids.

    A seeded permutation relabels the ids, so hubs are spread over the id
    range instead of sitting at the low ids.  The caller passes the random
    stream to each draw, so one graph's labels serve several streams.
    """

    def __init__(self, rng, scale):
        self.scale = scale
        ids = list(range(1 << scale))
        rng.shuffle(ids)
        self.label = ids

    def edge(self, rng):
        rnd = rng.random
        u = v = 0
        for _ in range(self.scale):
            r = rnd()
            u <<= 1
            v <<= 1
            if r < RMAT_A:
                pass
            elif r < RMAT_A + RMAT_B:
                v |= 1
            elif r < RMAT_A + RMAT_B + RMAT_C:
                u |= 1
            else:
                u |= 1
                v |= 1
        return self.label[u], self.label[v]

    def edges(self, rng, m):
        return [self.edge(rng) for _ in range(m)]

    def batch(self, rng, m, dup_share=0.05, loop_share=0.02):
        """m update edges; some repeat an earlier edge of the batch and
        some are self-loops, as real update streams have."""
        out = []
        for _ in range(m):
            r = rng.random()
            if out and r < dup_share:
                out.append(out[rng.randrange(len(out))])
            elif r < dup_share + loop_share:
                u = self.edge(rng)[0]
                out.append((u, u))
            else:
                out.append(self.edge(rng))
        return out
