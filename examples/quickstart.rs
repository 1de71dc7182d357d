//! Quickstart: compile a couple of XPath queries and run them over an XML
//! byte slice with the parallel pushdown transducer.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use pp_xml::prelude::*;

fn main() {
    // The running example of the paper (Fig 1a) plus a predicated query.
    let xml = br#"
        <a>
            <b><d>first branch</d></b>
            <b><c>the match</c></b>
        </a>"#;

    let engine = Engine::builder()
        .add_query("/a/b/c")
        .expect("valid query")
        .add_query("//d")
        .expect("valid query")
        .add_query("/a/b[d]")
        .expect("valid query")
        .chunk_size(16) // absurdly small, to show chunking on a tiny input
        .threads(2)
        .build()
        .expect("engine compiles");

    let result = engine.run(xml);

    for (i, query) in ["/a/b/c", "//d", "/a/b[d]"].iter().enumerate() {
        println!("{query}: {} match(es)", result.match_count(i));
        for m in result.matches(i) {
            let text = String::from_utf8_lossy(&xml[m.start..m.end]);
            println!("    depth {} span {}..{}: {}", m.depth, m.start, m.end, text.trim());
        }
    }

    let stats = &result.stats;
    // In-order chunks make one transition per tag and speculative ones one
    // per tag and starting state, so this is the run's actual work per tag.
    println!(
        "\nprocessed {} bytes in {} chunks ({} in order, {} speculative) on {} threads \
         ({:.2} transitions per tag)",
        stats.bytes,
        stats.chunks,
        stats.chunks_in_order,
        stats.chunks_speculative,
        stats.threads,
        stats.overhead_factor()
    );
}
