//! Plain-text edge-list serialization.
//!
//! The format is the one used by most public graph repositories: an optional
//! header line `# n m`, followed by one `u v` pair per line. Lines starting with
//! `#` (other than the header) and blank lines are ignored. The header, when
//! present, must come before the first edge line, and every line names an
//! edge of a simple graph: a self-loop `v v` is refused, a repeated edge
//! collapses.

use crate::csr::CsrGraph;
use crate::graph::Graph;

/// Error produced when parsing an edge list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// A line could not be parsed as two vertex indices.
    MalformedLine { line_number: usize, content: String },
    /// An endpoint was out of range for the declared vertex count.
    VertexOutOfRange {
        line_number: usize,
        vertex: usize,
        num_vertices: usize,
    },
    /// A line joined a vertex to itself; the graphs are simple.
    SelfLoop { line_number: usize, vertex: usize },
    /// A `# n m` header followed edge lines it would have bounded.
    HeaderAfterEdges { line_number: usize },
    /// The vertex count or edge count exceeds what the `u32`-indexed CSR
    /// arena can hold.
    TooLarge {
        line_number: usize,
        num_vertices: usize,
        num_edges: usize,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::MalformedLine {
                line_number,
                content,
            } => {
                write!(f, "line {line_number}: malformed edge `{content}`")
            }
            ParseError::VertexOutOfRange {
                line_number,
                vertex,
                num_vertices,
            } => write!(
                f,
                "line {line_number}: vertex {vertex} out of range for {num_vertices} vertices"
            ),
            ParseError::SelfLoop {
                line_number,
                vertex,
            } => write!(f, "line {line_number}: self-loop at vertex {vertex}"),
            ParseError::HeaderAfterEdges { line_number } => write!(
                f,
                "line {line_number}: `# n m` header after edge lines; it must come first"
            ),
            ParseError::TooLarge {
                line_number,
                num_vertices,
                num_edges,
            } => write!(
                f,
                "line {line_number}: {num_vertices} vertices and {num_edges} edges \
                 exceed u32 CSR indexing"
            ),
        }
    }
}

impl std::error::Error for ParseError {}

/// Serializes a graph as `# n m` followed by one `u v` line per edge.
pub fn to_edge_list(g: &Graph) -> String {
    let mut out = String::new();
    out.push_str(&format!("# {} {}\n", g.num_vertices(), g.num_edges()));
    for (u, v) in g.edges() {
        out.push_str(&format!("{u} {v}\n"));
    }
    out
}

/// Parses an edge list produced by [`to_edge_list`] or a plain `u v` list.
///
/// If no `# n m` header is present, the vertex count is inferred as the maximum
/// endpoint plus one. This is [`from_edge_list_csr`] followed by
/// [`CsrGraph::to_graph`]: both entry points accept and refuse exactly the
/// same inputs.
pub fn from_edge_list(text: &str) -> Result<Graph, ParseError> {
    from_edge_list_csr(text).map(|csr| csr.to_graph())
}

/// Parses the edge-list format directly into a [`CsrGraph`] arena without
/// materializing the adjacency-list [`Graph`].
///
/// One pass over the text validates every line and collects the edges as
/// `u32` pairs (8 bytes per edge); the arena is then built from them by
/// [`CsrGraph::from_edge_stream`]. Parsing the text dominates the cost, so it
/// happens exactly once.
///
/// # Errors
/// A typed [`ParseError`] for every input the arena cannot represent, never
/// a panic: [`MalformedLine`](ParseError::MalformedLine),
/// [`VertexOutOfRange`](ParseError::VertexOutOfRange),
/// [`SelfLoop`](ParseError::SelfLoop),
/// [`HeaderAfterEdges`](ParseError::HeaderAfterEdges), and
/// [`TooLarge`](ParseError::TooLarge) when the vertex or edge count does not
/// fit the arena's `u32` indexing.
pub fn from_edge_list_csr(text: &str) -> Result<CsrGraph, ParseError> {
    // Vertex counts above this bound cannot be indexed by the arena.
    const LIMIT: usize = u32::MAX as usize - 1;
    let mut declared_n: Option<usize> = None;
    let mut max_vertex: Option<usize> = None;
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line_number = i + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            if declared_n.is_none() {
                if let Some(n) = parse_header(rest) {
                    if !edges.is_empty() {
                        return Err(ParseError::HeaderAfterEdges { line_number });
                    }
                    if n > LIMIT {
                        return Err(ParseError::TooLarge {
                            line_number,
                            num_vertices: n,
                            num_edges: 0,
                        });
                    }
                    declared_n = Some(n);
                }
            }
            continue;
        }
        let (u, v) = parse_edge_line(line).ok_or_else(|| ParseError::MalformedLine {
            line_number,
            content: line.to_string(),
        })?;
        if let Some(n) = declared_n {
            if let Some(vertex) = [u, v].into_iter().find(|&x| x >= n) {
                return Err(ParseError::VertexOutOfRange {
                    line_number,
                    vertex,
                    num_vertices: n,
                });
            }
        }
        if u == v {
            return Err(ParseError::SelfLoop {
                line_number,
                vertex: u,
            });
        }
        let hi = u.max(v);
        if hi >= LIMIT || 2 * (edges.len() + 1) >= u32::MAX as usize {
            return Err(ParseError::TooLarge {
                line_number,
                num_vertices: hi.saturating_add(1),
                num_edges: edges.len() + 1,
            });
        }
        max_vertex = max_vertex.max(Some(hi));
        edges.push((u as u32, v as u32));
    }
    let n = declared_n.unwrap_or(max_vertex.map_or(0, |v| v + 1));
    Ok(CsrGraph::from_edge_stream(n, || edges.iter().copied()))
}

/// The vertex count of a `# n m` header (the text after `#`), if the comment
/// is one.
fn parse_header(rest: &str) -> Option<usize> {
    let mut parts = rest.split_whitespace();
    let n = parts.next()?.parse().ok()?;
    parts.next().map(|_| n)
}

fn parse_edge_line(line: &str) -> Option<(usize, usize)> {
    let mut parts = line.split_whitespace();
    let u: usize = parts.next()?.parse().ok()?;
    let v: usize = parts.next()?.parse().ok()?;
    Some((u, v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn round_trip() {
        let g = generators::grid(3, 3);
        let text = to_edge_list(&g);
        let parsed = from_edge_list(&text).unwrap();
        assert_eq!(parsed, g);
    }

    #[test]
    fn round_trip_with_isolated_vertices() {
        let mut g = generators::path(3);
        g.add_vertex();
        g.add_vertex();
        let parsed = from_edge_list(&to_edge_list(&g)).unwrap();
        assert_eq!(parsed.num_vertices(), 5);
        assert_eq!(parsed, g);
    }

    #[test]
    fn parse_without_header_infers_vertex_count() {
        let g = from_edge_list("0 1\n2 3\n").unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn parse_ignores_comments_and_blanks() {
        let g = from_edge_list("# 5 2\n\n# a comment\n0 4\n1 2\n").unwrap();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn malformed_line_is_rejected() {
        let err = from_edge_list("0 1\nnot-an-edge\n").unwrap_err();
        assert!(matches!(
            err,
            ParseError::MalformedLine { line_number: 2, .. }
        ));
    }

    #[test]
    fn out_of_range_vertex_is_rejected() {
        let err = from_edge_list("# 3 1\n0 7\n").unwrap_err();
        assert!(matches!(
            err,
            ParseError::VertexOutOfRange { vertex: 7, .. }
        ));
    }

    #[test]
    fn csr_parse_agrees_with_graph_parse() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let g = generators::erdos_renyi(60, 0.07, &mut rng);
        let text = to_edge_list(&g);
        let csr = from_edge_list_csr(&text).unwrap();
        assert!(csr.matches_graph(&from_edge_list(&text).unwrap()));
        // Headerless + comments + blanks.
        let csr = from_edge_list_csr("# a note\n\n0 4\n1 2\n").unwrap();
        assert!(csr.matches_graph(&from_edge_list("# a note\n\n0 4\n1 2\n").unwrap()));
        assert_eq!(from_edge_list_csr("").unwrap().num_vertices(), 0);
    }

    #[test]
    fn csr_parse_rejects_malformed_and_out_of_range_lines() {
        assert!(matches!(
            from_edge_list_csr("0 1\nnope\n"),
            Err(ParseError::MalformedLine { line_number: 2, .. })
        ));
        assert!(matches!(
            from_edge_list_csr("# 3 1\n0 7\n"),
            Err(ParseError::VertexOutOfRange { vertex: 7, .. })
        ));
    }

    /// Both parsers refuse `text` with the same error.
    fn refused(text: &str) -> ParseError {
        let err = from_edge_list_csr(text).unwrap_err();
        assert_eq!(from_edge_list(text).unwrap_err(), err, "{text:?}");
        err
    }

    #[test]
    fn self_loops_are_typed_errors_in_both_parsers() {
        assert_eq!(
            refused("# 3 1\n0 0\n"),
            ParseError::SelfLoop {
                line_number: 2,
                vertex: 0
            }
        );
        assert_eq!(
            refused("0 1\n4 4\n"),
            ParseError::SelfLoop {
                line_number: 2,
                vertex: 4
            }
        );
    }

    #[test]
    fn a_header_after_edge_lines_is_a_typed_error() {
        for (text, line_number) in [("0 5\n# 3 1\n", 2), ("0 1\n\n# 9 1\n", 3)] {
            assert_eq!(refused(text), ParseError::HeaderAfterEdges { line_number });
        }
        // Comments that are not headers may follow edges, and only the first
        // header counts.
        let g = from_edge_list("0 1\n# a note\n1 2\n").unwrap();
        assert_eq!((g.num_vertices(), g.num_edges()), (3, 2));
        let g = from_edge_list("# 4 1\n0 1\n# 2 0\n").unwrap();
        assert_eq!((g.num_vertices(), g.num_edges()), (4, 1));
    }

    #[test]
    fn vertex_counts_beyond_u32_indexing_are_typed_errors() {
        for text in [
            "# 5000000000 0\n",
            "0 5000000000\n",
            "0 18446744073709551615\n",
        ] {
            assert!(
                matches!(refused(text), ParseError::TooLarge { line_number: 1, .. }),
                "{text:?}"
            );
        }
    }

    #[test]
    fn empty_input_is_empty_graph() {
        let g = from_edge_list("").unwrap();
        assert_eq!(g.num_vertices(), 0);
    }
}
