type field_desc = {
  f_name : string;
  f_type : Types.field_type;
  f_offset : int;
  f_index : int;
  f_transportable : bool;
}

type kind =
  | K_class
  | K_array of Types.elem
  | K_md_array of Types.elem * int

type method_table = {
  c_id : Types.class_id;
  c_name : string;
  c_kind : kind;
  c_fields : field_desc array;
  c_instance_size : int;
  c_ref_offsets : int array;
  c_has_refs : bool;
  c_transportable : bool ref;
}

type t = {
  mutable tables : method_table array;  (* index = id - 1 *)
  by_name : (string, method_table) Hashtbl.t;
  array_cache : (Types.elem, method_table) Hashtbl.t;
  md_cache : (Types.elem * int, method_table) Hashtbl.t;
  pending : (Types.class_id, unit) Hashtbl.t;  (* declared, not completed *)
}

let align n a = (n + a - 1) land lnot (a - 1)

let register t mt =
  if Hashtbl.mem t.by_name mt.c_name then
    invalid_arg ("Classes.define: duplicate class " ^ mt.c_name);
  t.tables <- Array.append t.tables [| mt |];
  Hashtbl.add t.by_name mt.c_name mt;
  mt

let layout fields =
  let n_fields = List.length fields in
  let descs = Array.make n_fields None in
  let seen = Hashtbl.create 8 in
  let offset = ref 0 in
  List.iteri
    (fun i (fname, ftype, transp) ->
      if Hashtbl.mem seen fname then
        invalid_arg ("Classes.define: duplicate field " ^ fname);
      Hashtbl.add seen fname ();
      let size = Types.field_size ftype in
      let off = align !offset size in
      offset := off + size;
      descs.(i) <-
        Some
          {
            f_name = fname;
            f_type = ftype;
            f_offset = off;
            f_index = i;
            f_transportable = transp;
          })
    fields;
  let c_fields =
    Array.map (function Some d -> d | None -> assert false) descs
  in
  let ref_offsets =
    Array.to_list c_fields
    |> List.filter_map (fun d ->
           match d.f_type with
           | Types.Ref _ -> Some d.f_offset
           | Types.Prim _ -> None)
    |> Array.of_list
  in
  (c_fields, align !offset 4, ref_offsets)

let make_class t ~name ~transportable ~fields =
  let c_fields, c_instance_size, ref_offsets = layout fields in
  register t
    {
      c_id = Array.length t.tables + 1;
      c_name = name;
      c_kind = K_class;
      c_fields;
      c_instance_size;
      c_ref_offsets = ref_offsets;
      c_has_refs = Array.length ref_offsets > 0;
      c_transportable = ref transportable;
    }

let create () =
  let t =
    {
      tables = [||];
      by_name = Hashtbl.create 64;
      array_cache = Hashtbl.create 16;
      md_cache = Hashtbl.create 8;
      pending = Hashtbl.create 8;
    }
  in
  ignore
    (make_class t ~name:"System.Object" ~transportable:false ~fields:[]);
  t

let declare t ~name =
  match Hashtbl.find_opt t.by_name name with
  | Some mt -> mt.c_id
  | None ->
      let mt =
        register t
          {
            c_id = Array.length t.tables + 1;
            c_name = name;
            c_kind = K_class;
            c_fields = [||];
            c_instance_size = 0;
            c_ref_offsets = [||];
            c_has_refs = false;
            c_transportable = ref false;
          }
      in
      Hashtbl.replace t.pending mt.c_id ();
      mt.c_id

let complete t id ?(transportable = false) ~fields () =
  if not (Hashtbl.mem t.pending id) then
    invalid_arg "Classes.complete: class was not declared (or already done)";
  Hashtbl.remove t.pending id;
  let old = t.tables.(id - 1) in
  let c_fields, c_instance_size, ref_offsets = layout fields in
  let mt =
    {
      c_id = id;
      c_name = old.c_name;
      c_kind = K_class;
      c_fields;
      c_instance_size;
      c_ref_offsets = ref_offsets;
      c_has_refs = Array.length ref_offsets > 0;
      c_transportable = ref transportable;
    }
  in
  t.tables.(id - 1) <- mt;
  Hashtbl.replace t.by_name old.c_name mt;
  mt

let object_class t = t.tables.(0)

let find t id =
  if id < 1 || id > Array.length t.tables then raise Not_found
  else t.tables.(id - 1)

let find_by_name t name = Hashtbl.find_opt t.by_name name

let elem_name t = function
  | Types.Eprim p -> Types.prim_name p
  | Types.Eref cid -> (
      match find t cid with
      | mt -> mt.c_name
      | exception Not_found -> Printf.sprintf "ref<%d>" cid)

let array_class t elem =
  match Hashtbl.find_opt t.array_cache elem with
  | Some mt -> mt
  | None ->
      let name = elem_name t elem ^ "[]" in
      let mt =
        register t
          {
            c_id = Array.length t.tables + 1;
            c_name = name;
            c_kind = K_array elem;
            c_fields = [||];
            c_instance_size = 0;
            c_ref_offsets = [||];
            c_has_refs = Types.elem_is_ref elem;
            c_transportable = ref true;
          }
      in
      Hashtbl.add t.array_cache elem mt;
      mt

let md_array_class t elem ~rank =
  if rank < 2 then invalid_arg "Classes.md_array_class: rank must be >= 2";
  match Hashtbl.find_opt t.md_cache (elem, rank) with
  | Some mt -> mt
  | None ->
      let commas = String.make (rank - 1) ',' in
      let name = Printf.sprintf "%s[%s]" (elem_name t elem) commas in
      let mt =
        register t
          {
            c_id = Array.length t.tables + 1;
            c_name = name;
            c_kind = K_md_array (elem, rank);
            c_fields = [||];
            c_instance_size = 0;
            c_ref_offsets = [||];
            c_has_refs = Types.elem_is_ref elem;
            c_transportable = ref true;
          }
      in
      Hashtbl.add t.md_cache (elem, rank) mt;
      mt

let field mt name =
  let n = Array.length mt.c_fields in
  let rec go i =
    if i >= n then raise Not_found
    else if mt.c_fields.(i).f_name = name then mt.c_fields.(i)
    else go (i + 1)
  in
  go 0

let field_by_index mt i =
  if i < 0 || i >= Array.length mt.c_fields then
    invalid_arg "Classes.field_by_index";
  mt.c_fields.(i)
