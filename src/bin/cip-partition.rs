//! `cip-partition` — decompose a contact/impact mesh from the command
//! line.
//!
//! Reads a mesh in the `cipmesh 1` text format (`cip::mesh::read_text`;
//! `--demo` writes a sample), marks its boundary surface as the contact
//! surface, runs the full MCML+DT pipeline — two-constraint partitioning,
//! DT-friendly correction, search-tree induction — and writes the
//! per-node part assignment plus the search tree.
//!
//! ```text
//! cip-partition --demo demo.cipmesh            # write a sample input
//! cip-partition --mesh demo.cipmesh --k 16 \
//!     --out partition.json --dot tree.dot
//! ```

use cip::contact::{n_remote, DtreeFilter};
use cip::core::{
    decompose, gather, quality_report, surface_elements, DtFriendlyConfig, McmlDtConfig,
};
use cip::dtree::{induce, DtreeConfig};
use cip::geom::Point;
use cip::graph::{edge_cut, total_comm_volume, Partition};
use cip::mesh::graphs::nodal_graph;
use cip::mesh::{extract_surface, generators, Mesh};
use cip::partition::PartitionerConfig;
use cip::telemetry::json::ToJson;
use cip::telemetry::json_struct;
use cip_base::cli::{self, fail, Argv, UsageError};

struct Output {
    k: usize,
    num_nodes: usize,
    num_contact_nodes: usize,
    /// Part of each mesh node (`u32::MAX` = node unused by live elements).
    node_parts: Vec<u32>,
    edge_cut: i64,
    fe_comm: u64,
    n_remote: u64,
    imbalance_fe: f64,
    imbalance_contact: f64,
    tree_nodes: usize,
}

json_struct!(Output {
    k,
    num_nodes,
    num_contact_nodes,
    node_parts,
    edge_cut,
    fe_comm,
    n_remote,
    imbalance_fe,
    imbalance_contact,
    tree_nodes,
});

fn write(path: &str, contents: String) {
    if let Err(e) = std::fs::write(path, contents) {
        fail(format!("cannot write {path}: {e}"));
    }
}

struct Args {
    mesh: Option<String>,
    demo: Option<String>,
    k: usize,
    out: Option<String>,
    dot: Option<String>,
    seed: u64,
    friendly: bool,
}

fn parse_args(argv: &mut Argv) -> Result<Args, UsageError> {
    let mut args =
        Args { mesh: None, demo: None, k: 8, out: None, dot: None, seed: 1, friendly: true };
    while let Some(flag) = argv.next_flag() {
        match flag.as_str() {
            "--mesh" => args.mesh = Some(argv.value(&flag)?),
            "--demo" => args.demo = Some(argv.value(&flag)?),
            "--k" => args.k = argv.integer(&flag)?,
            "--out" => args.out = Some(argv.value(&flag)?),
            "--dot" => args.dot = Some(argv.value(&flag)?),
            "--seed" => args.seed = argv.integer(&flag)?,
            "--no-friendly" => args.friendly = false,
            "--help" | "-h" => {
                eprintln!(
                    "usage: cip-partition [--demo FILE] [--mesh FILE --k K] \
                     [--out FILE] [--dot FILE] [--seed N] [--no-friendly]"
                );
                std::process::exit(0);
            }
            _ => return Err(cli::unknown(&flag, "try --help")),
        }
    }
    if args.k == 0 {
        return Err("--k must be at least 1".into());
    }
    Ok(args)
}

fn main() {
    let args = cli::parse(parse_args);

    if let Some(path) = &args.demo {
        // Two stacked boxes make a minimal two-body contact problem.
        let mut mesh = generators::hex_box([8, 8, 2], Point::new([0.0, 0.0, 0.0]), [1.0; 3], 0);
        let upper = generators::hex_box([4, 4, 4], Point::new([2.0, 2.0, 2.5]), [1.0; 3], 1);
        mesh.append(&upper);
        write(path, cip::mesh::write_text(&mesh));
        eprintln!("wrote demo mesh ({} nodes) to {path}", mesh.num_nodes());
        if args.mesh.is_none() {
            return;
        }
    }

    let Some(mesh_path) = &args.mesh else {
        fail("--mesh is required (or --demo to generate an input); see --help");
    };
    let data = std::fs::read_to_string(mesh_path)
        .unwrap_or_else(|e| fail(format!("cannot read {mesh_path}: {e}")));
    if !data.trim_start().starts_with("cipmesh") {
        fail(format!("{mesh_path} is not a `cipmesh 1` text mesh (--demo FILE writes a sample)"));
    }
    let mesh: Mesh<3> = cip::mesh::read_text(&data)
        .unwrap_or_else(|e| fail(format!("cannot parse {mesh_path}: {e}")));
    if let Err(e) = mesh.validate() {
        fail(format!("{mesh_path} is not a valid mesh: {e}"));
    }
    let k = args.k;

    // Contact surface = boundary of the live mesh.
    let surface = extract_surface(&mesh);
    let mask = surface.contact_node_mask(mesh.num_nodes());
    eprintln!(
        "mesh: {} nodes, {} elements, {} surface faces, {} contact nodes",
        mesh.num_nodes(),
        mesh.num_elements(),
        surface.num_faces(),
        surface.num_contact_nodes()
    );

    // MCML+DT pipeline.
    let cfg = McmlDtConfig {
        partitioner: PartitionerConfig::with_seed(args.seed),
        dt_friendly: args.friendly.then(DtFriendlyConfig::default),
        ..McmlDtConfig::paper(k)
    };
    let ng = nodal_graph(&mesh, &mask, cfg.graph_options());
    let dec = decompose(&ng, &mesh.points, &cfg);
    if let Some(stats) = &dec.stats {
        eprintln!(
            "DT-friendly correction: {} regions, {} relabeled, {} refined",
            stats.regions, stats.relabeled, stats.refined
        );
    }
    let (asg, node_parts) = (dec.asg, dec.node_parts);

    // Search tree + global-search stats.
    let contact_positions = gather(&surface.contact_nodes, &mesh.points);
    let labels = gather(&surface.contact_nodes, &node_parts);
    let tree = induce(&contact_positions, &labels, k, &DtreeConfig::search_tree());
    let elements = surface_elements(&surface.faces, &mesh.points, &node_parts);
    let shipped = n_remote(&elements, &DtreeFilter::new(&tree, k));

    let part = Partition::from_assignment(&ng.graph, k, asg.clone());
    eprint!("{}", quality_report(&ng.graph, &asg, k, Some(&tree)).render());
    let output = Output {
        k,
        num_nodes: mesh.num_nodes(),
        num_contact_nodes: surface.num_contact_nodes(),
        node_parts,
        edge_cut: edge_cut(&ng.graph, &asg),
        fe_comm: total_comm_volume(&ng.graph, &asg),
        n_remote: shipped,
        imbalance_fe: part.imbalance(0),
        imbalance_contact: part.imbalance(1),
        tree_nodes: tree.num_nodes(),
    };
    eprintln!(
        "k = {k}: cut {}, FEComm {}, NRemote {}, tree {} nodes, imbalance {:.3}/{:.3}",
        output.edge_cut,
        output.fe_comm,
        output.n_remote,
        output.tree_nodes,
        output.imbalance_fe,
        output.imbalance_contact
    );

    if let Some(path) = &args.dot {
        write(path, tree.to_dot());
        eprintln!("wrote search tree to {path}");
    }
    match &args.out {
        Some(path) => {
            write(path, output.to_json());
            eprintln!("wrote partition to {path}");
        }
        None => println!("{}", output.to_json()),
    }
}
