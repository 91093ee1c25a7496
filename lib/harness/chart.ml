let glyphs = [| '*'; 'o'; '+'; 'x'; '#'; '@'; '%'; '&' |]

(* The canvas, in characters. *)
let width = 72
let height = 20

let log_log ?(out = Format.std_formatter)
    ~title ~xlabel ~ylabel ~series () =
  let points =
    List.concat_map
      (fun (_, pts) -> List.filter (fun (x, y) -> x > 0.0 && y > 0.0) pts)
      series
  in
  if points = [] then Format.fprintf out "== %s == (no data)@." title
  else begin
    let lx (x, _) = log10 x and ly (_, y) = log10 y in
    let fold f init g = List.fold_left (fun acc p -> f acc (g p)) init points in
    let x0 = fold Float.min infinity lx and x1 = fold Float.max neg_infinity lx in
    let y0 = fold Float.min infinity ly and y1 = fold Float.max neg_infinity ly in
    let xspan = Float.max (x1 -. x0) 1e-9 in
    let yspan = Float.max (y1 -. y0) 1e-9 in
    let grid = Array.make_matrix height width ' ' in
    let plot glyph (x, y) =
      if x > 0.0 && y > 0.0 then begin
        let c =
          int_of_float
            (Float.round ((log10 x -. x0) /. xspan *. float_of_int (width - 1)))
        in
        let r =
          height - 1
          - int_of_float
              (Float.round
                 ((log10 y -. y0) /. yspan *. float_of_int (height - 1)))
        in
        if grid.(r).(c) = ' ' then grid.(r).(c) <- glyph
      end
    in
    List.iteri
      (fun i (_, pts) ->
        List.iter (plot glyphs.(i mod Array.length glyphs)) pts)
      series;
    Format.fprintf out "@.== %s ==@." title;
    Format.fprintf out "%s (log scale)@." ylabel;
    let y_of_row r =
      10.0 ** (y1 -. (float_of_int r /. float_of_int (height - 1) *. yspan))
    in
    Array.iteri
      (fun r row ->
        let label =
          if r mod 5 = 0 || r = height - 1 then
            Printf.sprintf "%8.0f" (y_of_row r)
          else String.make 8 ' '
        in
        Format.fprintf out "%s |%s@." label (String.init width (fun c -> row.(c))))
      grid;
    Format.fprintf out "%s +%s@." (String.make 8 ' ') (String.make width '-');
    Format.fprintf out "%s  %-10.0f%*s%.0f  (%s, log scale)@."
      (String.make 8 ' ') (10.0 ** x0) (width - 20) "" (10.0 ** x1) xlabel;
    Format.fprintf out "  legend:";
    List.iteri
      (fun i (name, _) ->
        Format.fprintf out "  %c=%s" glyphs.(i mod Array.length glyphs) name)
      series;
    Format.fprintf out "@."
  end
