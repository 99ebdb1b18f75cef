"""Ground-truth-labeled signal synthesis, one module per family:
`modulations`, `radar`, `protocol`, `jamming`, `channel` (noise and AWGN)
and `impairments` (device signatures). The package itself exports nothing."""
