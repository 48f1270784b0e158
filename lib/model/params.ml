type agent = { wreq : float; wfix : float; wsel : float; sreq : float; srep : float }

type server = { wpre : float; sreq : float; srep : float }

type t = { agent : agent; server : server }

let check name v =
  if v < 0.0 || not (Float.is_finite v) then
    invalid_arg (Printf.sprintf "Params.make: %s must be non-negative and finite" name)

let make ~agent ~server =
  check "agent.wreq" agent.wreq;
  check "agent.wfix" agent.wfix;
  check "agent.wsel" agent.wsel;
  check "agent.sreq" agent.sreq;
  check "agent.srep" agent.srep;
  check "server.wpre" server.wpre;
  check "server.sreq" server.sreq;
  check "server.srep" server.srep;
  { agent; server }

let diet_lyon =
  make
    ~agent:{ wreq = 1.7e-1; wfix = 4.0e-3; wsel = 5.4e-3; sreq = 5.3e-3; srep = 5.4e-3 }
    ~server:{ wpre = 6.4e-3; sreq = 5.3e-5; srep = 6.4e-5 }

let wrep t ~degree =
  if degree < 0 then invalid_arg "Params.wrep: negative degree";
  t.agent.wfix +. (t.agent.wsel *. float_of_int degree)

let scale_agent_compute t factor =
  if factor <= 0.0 || not (Float.is_finite factor) then
    invalid_arg "Params.scale_agent_compute: factor must be positive";
  {
    t with
    agent =
      {
        t.agent with
        wreq = t.agent.wreq *. factor;
        wfix = t.agent.wfix *. factor;
        wsel = t.agent.wsel *. factor;
      };
  }

let to_table t =
  let open Adept_util in
  let table =
    Table.create
      [ "DIET element"; "Wreq (MFlop)"; "Wrep (MFlop)"; "Wpre (MFlop)"; "Srep (Mb)"; "Sreq (Mb)" ]
  in
  let table =
    Table.add_row table
      [
        "Agent";
        Printf.sprintf "%.1e" t.agent.wreq;
        Printf.sprintf "%.1e + %.1e*d" t.agent.wfix t.agent.wsel;
        "-";
        Printf.sprintf "%.1e" t.agent.srep;
        Printf.sprintf "%.1e" t.agent.sreq;
      ]
  in
  Table.add_row table
    [
      "Server";
      "-";
      "-";
      Printf.sprintf "%.1e" t.server.wpre;
      Printf.sprintf "%.1e" t.server.srep;
      Printf.sprintf "%.1e" t.server.sreq;
    ]
