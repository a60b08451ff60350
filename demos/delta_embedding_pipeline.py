# The full perturbation pipeline on a desk-scale suspension sample.
#
# A 120-state roof-1 suspension over a 12-cycle carries a factor map
# onto the depth-3 truncated solenoid.  The equivariant signal map
# through the solenoid embedding is corrected on a lattice of orbit
# nodes: certify the kernel budget delta', search for a separated node
# matrix G within delta'/2, place kernel translates weighted by G - F,
# and verify that matching (signal, factor) images force sample
# distance below delta.

from flowdim.instances import run_embedding_pipeline

result = run_embedding_pipeline(delta=0.2, rho=1, N=2,
                                base_size=12, n_heights=10, seed=2024)

print("sample states:          ", len(result.instance.flow.values))
print("certified K_dec:        ", result.run.constants.K_dec)
print("certified S_sup:        ", result.run.constants.S_sup)
print("perturbation budget d': ", result.run.delta_prime)
print("search epsilon:         ", result.eps)
print("search tries:           ", result.search_report.tries)
print("sup |g - f|:            ", result.sup_change, "(< delta = 0.2)")
print("node-identity residual: ", result.node_residual)
print("equivariance residual:  ", result.equivariance_residual)
print()
v = result.verdict
print(f"verification: {v.n_pairs} pairs, {v.n_matched} image matches, "
      f"min image separation {v.min_image_separation:.4f}")
print("delta-embedding verified:", v.passed)
print("pipeline passed:", result.passed)
