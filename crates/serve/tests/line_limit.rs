//! Request lines are read into one bounded buffer: a line longer than
//! [`MAX_REQUEST_LINE`] gets an `error` reply, counts as an invalid
//! request, and the connection goes on serving the lines after it.

use std::io::Cursor;

use snslp_bench::json::Json;
use snslp_serve::server::{serve_connection, MAX_REQUEST_LINE};
use snslp_serve::{Request, ServeConfig, Server, STATUS_ERROR, STATUS_OK};

#[test]
fn oversized_lines_are_refused_and_the_connection_survives() {
    let server = Server::start(ServeConfig::default());
    // A stats request padded with whitespace to exactly the cap is
    // still a request.
    let at_cap = |id| {
        let mut line = Request::render_stats(id);
        line.push_str(&" ".repeat(MAX_REQUEST_LINE - line.len()));
        line
    };
    let mut input = String::new();
    input.push_str(&"x".repeat(MAX_REQUEST_LINE + 1));
    input.push('\n');
    input.push_str(&at_cap(2));
    input.push('\n');
    input.push_str(&"y".repeat(MAX_REQUEST_LINE + 7));
    input.push('\n');
    input.push_str(&Request::render_stats(4));
    input.push('\n');
    // The cap does not count a "\r\n" ending either.
    input.push_str(&"z".repeat(MAX_REQUEST_LINE + 1));
    input.push_str("\r\n");
    input.push_str(&at_cap(6));
    input.push_str("\r\n");

    let mut output = Vec::new();
    serve_connection(server.state(), Cursor::new(input), &mut output);
    let output = String::from_utf8(output).expect("utf-8 replies");
    let replies: Vec<Json> = output
        .lines()
        .map(|l| Json::parse(l).expect("reply is JSON"))
        .collect();
    let field = |r: &Json, k: &str| r.get(k).and_then(Json::as_str).map(str::to_string);
    let id = |r: &Json| r.get("id").and_then(Json::as_num);

    assert_eq!(replies.len(), 6, "{output}");
    for (reply, want_id) in [(&replies[0], 0.0), (&replies[2], 0.0), (&replies[4], 0.0)] {
        assert_eq!(field(reply, "status").as_deref(), Some(STATUS_ERROR));
        assert!(field(reply, "error").unwrap().contains("exceeds"));
        assert_eq!(id(reply), Some(want_id));
    }
    for (reply, want_id) in [(&replies[1], 2.0), (&replies[3], 4.0), (&replies[5], 6.0)] {
        assert_eq!(field(reply, "status").as_deref(), Some(STATUS_OK));
        assert_eq!(id(reply), Some(want_id));
    }
    let counters = server.state().telemetry_snapshot().counters;
    assert_eq!(counters.invalid_requests, 3);
    assert_eq!(counters.stats_requests, 3);
    server.shutdown();
}
