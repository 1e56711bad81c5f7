type t = int array

let make ~counts ~me =
  let t = Array.copy counts in
  if me < 0 || me >= Array.length t then invalid_arg "Vts.make: me out of range";
  t.(me) <- t.(me) + 1;
  t

(* Top-level rather than a local closure over [a] and [b], so comparing
   allocates nothing. *)
let rec compare_from (a : t) (b : t) n i =
  if i >= n then 0
  else
    let c = Int.compare a.(i) b.(i) in
    if c <> 0 then c else compare_from a b n (i + 1)

let compare (a : t) (b : t) =
  let n = Array.length a in
  if n <> Array.length b then invalid_arg "Vts.compare: length mismatch";
  compare_from a b n 0

let equal a b = compare a b = 0
let geq a b = compare a b >= 0
let to_array = Array.copy
let of_array = Array.copy

let pp fmt t =
  Format.fprintf fmt "(%s)"
    (String.concat "," (Array.to_list (Array.map string_of_int t)))

let show t = Format.asprintf "%a" pp t
