"""From tile graph to boundary code, and exact most-likely-error decoding.

Contracting every edge of the network in the stabilizer formalism leaves a
code on the boundary: n - k commuting checks plus an X/Z representative
pair per bulk qubit.  Decoding maps a syndrome to a pure error through the
GF(2) right inverse of the check matrix, then finds the minimum-weight
element of its coset over stabilizers and logicals - here with an exact
trellis sweep.
"""

from holocode import CodeDecoder, PauliVector, build_code, coset_sectors, run_trials

code = build_code("heptagon", "max", 2)
print(f"heptagon R=2: [[{code.n},{code.k}]] css={code.css}")
print("stabilizer weights:", sorted(s.weight() for s in code.stabilizers))
print("central logical reps:",
      code.logicals[0].x_rep.to_string(), "/",
      code.logicals[0].z_rep.to_string())

z_errors, x_errors = coset_sectors(code)  # X-type checks see Z errors
print(f"X-type checks: {len(z_errors.checks)} x {z_errors.width}; "
      f"Z-type: {len(x_errors.checks)} x {x_errors.width}")

dec = CodeDecoder(code)

# A correctable error: weight 2, decoded exactly.
err = PauliVector.from_string("XZ" + "I" * 40)
syndrome = dec.syndrome(err)
correction, certified = dec.decode(syndrome)
net = err.mul(correction)
print("\nerror:       ", err.to_string())
print("correction:  ", correction.to_string())
print("net effect on the 8 bulk qubits:", dec.net_logical_effect(net))

# Push the weight up until the decoder starts losing the central qubit.
for a in (1, 3, 5, 8, 12):
    rec = run_trials(code, 0, a, 300, seed=1, decoder=dec)
    print(f"weight {a:2d}: central-qubit failure rate {rec.p:.3f}")
