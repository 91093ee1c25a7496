type expectation = Must_fail | Must_pass

type entry = {
  c_workload : string;
  c_expect : expectation;
  c_note : string;
  c_fault : int option;
  c_quick : bool;
  c_decisions : int list;
}

let magic = "# motor schedule trace v1"

let to_string e =
  let b = Buffer.create 256 in
  Buffer.add_string b magic;
  Buffer.add_char b '\n';
  Buffer.add_string b ("workload " ^ e.c_workload ^ "\n");
  Buffer.add_string b
    ("expect " ^ (match e.c_expect with Must_fail -> "fail" | Must_pass -> "pass"));
  Buffer.add_char b '\n';
  if e.c_note <> "" then Buffer.add_string b ("note " ^ e.c_note ^ "\n");
  (match e.c_fault with
  | Some s -> Buffer.add_string b ("fault " ^ string_of_int s ^ "\n")
  | None -> ());
  if e.c_quick then Buffer.add_string b "size quick\n";
  Buffer.add_string b
    (String.concat " " ("decisions" :: List.map string_of_int e.c_decisions));
  Buffer.add_char b '\n';
  Buffer.contents b

let of_string s =
  let lines =
    String.split_on_char '\n' s
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  match lines with
  | first :: rest when first = magic ->
      let workload = ref None
      and expect = ref None
      and note = ref ""
      and fault = ref None
      and quick = ref false
      and decisions = ref None in
      List.iter
        (fun line ->
          match String.index_opt line ' ' with
          | _ when String.length line > 0 && line.[0] = '#' -> ()
          | None -> (
              match line with
              | "decisions" -> decisions := Some []
              | _ -> failwith ("corpus: unrecognized line: " ^ line))
          | Some i -> (
              let key = String.sub line 0 i in
              let value =
                String.sub line (i + 1) (String.length line - i - 1)
              in
              match key with
              | "workload" -> workload := Some value
              | "expect" -> (
                  match value with
                  | "fail" -> expect := Some Must_fail
                  | "pass" -> expect := Some Must_pass
                  | _ -> failwith ("corpus: bad expectation: " ^ value))
              | "note" -> note := value
              | "fault" -> (
                  match int_of_string_opt value with
                  | Some s -> fault := Some s
                  | None -> failwith ("corpus: bad fault seed: " ^ value))
              | "size" ->
                  if value = "quick" then quick := true
                  else failwith ("corpus: bad size: " ^ value)
              | "decisions" ->
                  decisions :=
                    Some
                      (String.split_on_char ' ' value
                      |> List.filter (fun t -> t <> "")
                      |> List.map (fun t ->
                             match int_of_string_opt t with
                             | Some d -> d
                             | None ->
                                 failwith ("corpus: bad decision: " ^ t)))
              | _ -> failwith ("corpus: unrecognized key: " ^ key)))
        rest;
      let require what = function
        | Some x -> x
        | None -> failwith ("corpus: missing " ^ what)
      in
      {
        c_workload = require "workload" !workload;
        c_expect = require "expect" !expect;
        c_note = !note;
        c_fault = !fault;
        c_quick = !quick;
        c_decisions = require "decisions" !decisions;
      }
  | _ -> failwith "corpus: missing magic header"

let save ~path e =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_string e))

let load ~path =
  of_string (In_channel.with_open_text path In_channel.input_all)
