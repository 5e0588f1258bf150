//! Fig 5 / Fig 7b — branch-induced sparsity of the mass matrix and the
//! incremental-column structure of the ΔRNEA quantities.
//!
//! Exits non-zero unless every entry of `M` off the branch of its row's
//! joint (outside the related DOFs of its body) is exactly zero.

use rbd_dynamics::{mminv_gen, DynamicsWorkspace};
use rbd_model::{random_state, robots};

fn main() {
    let mut off_branch_nonzero = 0;
    for model in [robots::hyq(), robots::atlas()] {
        let mut ws = DynamicsWorkspace::new(&model);
        let s = random_state(&model, 1);
        let m = mminv_gen(&model, &mut ws, &s.q, true, false)
            .expect("mass matrix")
            .m
            .expect("M requested");
        let nv = model.nv();
        for i in 0..nv {
            let rel = ws.rel(ws.dof_body[i]);
            for j in (0..nv).filter(|j| !rel.contains(j)) {
                if m[(i, j)] != 0.0 {
                    eprintln!("{}: off-branch M[{i},{j}] = {:e}", model.name(), m[(i, j)]);
                    off_branch_nonzero += 1;
                }
            }
        }
        println!(
            "\n=== Fig 5 — mass matrix sparsity, {} ({}x{}) ===",
            model.name(),
            nv,
            nv
        );
        let mut nnz = 0;
        for i in 0..nv {
            let mut line = String::new();
            for j in 0..nv {
                if m[(i, j)].abs() > 1e-10 {
                    nnz += 1;
                    line.push('#');
                } else {
                    line.push('.');
                }
            }
            println!("  {line}");
        }
        println!(
            "  fill: {:.1}% ({} of {}) — off-branch blocks are exactly zero",
            100.0 * nnz as f64 / (nv * nv) as f64,
            nnz,
            nv * nv
        );

        println!("\n=== Fig 7b — incremental columns of dv/da per body ===");
        for i in 0..model.num_bodies() {
            let mut cols = model.joint(i).jtype.nv();
            for a in model.topology().ancestors(i) {
                cols += model.joint(a).jtype.nv();
            }
            println!(
                "  body {:>2} ({:<14}) depth {:>2}: {:>2} live columns |{}|",
                i,
                model.body_name(i),
                model.topology().depth(i) + 1,
                cols,
                "#".repeat(cols)
            );
        }
    }
    println!(
        "\nThe live-column count equals the ancestor DOFs — the linear growth that\n\
         drives the Df resource allocation of Fig 7c."
    );
    if off_branch_nonzero > 0 {
        eprintln!("{off_branch_nonzero} off-branch mass-matrix entries are not exactly zero");
        std::process::exit(1);
    }
}
