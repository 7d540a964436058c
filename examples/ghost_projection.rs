//! Ghost code and the projection theorem in action (Definition 3.3 /
//! Theorem 3.8 of the paper): the verification engineer writes ghost repairs
//! alongside the user program; once the augmented program verifies, the ghost
//! code is *erased* and the remaining user program is exactly the original
//! code — which therefore maintains the data structure.
//!
//! Run with: `cargo run --example ghost_projection --release`

use intrinsic_verify::core::ghost::{check_ghost_legality, project};
use intrinsic_verify::core::pipeline::load_methods;
use intrinsic_verify::ivl::printer::{procedure_to_string, write_expr_in};
use intrinsic_verify::ivl::{parse_expr, program_to_string};
use intrinsic_verify::structures::lists;

fn main() {
    let ids = lists::singly_linked_list();
    let merged =
        load_methods(&ids, lists::SINGLY_LINKED_LIST_METHODS).expect("benchmark methods load");

    println!("== ghost-code legality ==");
    let violations = check_ghost_legality(&merged);
    println!(
        "  {} procedures checked, {} violations",
        merged.procedures.len(),
        violations.len()
    );

    println!("\n== insert_front as written (what the verifier reads) ==\n");
    let proc = merged
        .procedure("insert_front")
        .expect("insert_front exists");
    print!("{}", procedure_to_string(proc));

    // The verifier builds no expanded copy: it instantiates the local
    // condition where it meets `LC(z)`, and expands each macro statement
    // into its few statements when it reaches it.
    println!("\n== LC(z), as the verifier instantiates it ==\n");
    let mut instance = String::new();
    write_expr_in(&mut instance, &parse_expr("LC(z)").expect("parses"), &ids);
    println!("{}", instance);

    println!("\n== the projected user program (ghost code erased) ==\n");
    let user = project(&merged);
    let mut only_insert = user.clone();
    only_insert.procedures.retain(|p| p.name == "insert_front");
    print!("{}", program_to_string(&only_insert));
    println!("Every ghost map update, broken-set manipulation and assertion is gone;");
    println!("what remains is the code a programmer would have written anyway.");
}
