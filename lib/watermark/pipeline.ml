type xml_scheme = {
  scheme : Tree_scheme.t;
  binary : Wm_trees.Btree.t;
  pattern : Wm_xml.Pattern.t;
}

let prepare_xml ?options doc pattern =
  let constants = Wm_xml.Pattern.constants pattern in
  let binary = Wm_xml.Encode.to_binary_abstract ~constants doc in
  let alphabet = Wm_xml.Encode.abstract_alphabet ~constants doc in
  match Wm_xml.Pattern.compile pattern ~alphabet with
  | exception Wm_trees.Mso_compile.Unsupported msg -> Error msg
  | query -> (
      match Tree_scheme.prepare ?options binary query with
      | Error e -> Error e
      | Ok scheme -> Ok { scheme; binary; pattern })

let mark_xml xs ~message doc =
  let w = Wm_xml.Utree.weights doc in
  let w' = Tree_scheme.mark xs.scheme message w in
  Wm_xml.Utree.with_weights doc w'

let detect_xml xs ~original ~suspect ~length =
  if Wm_xml.Utree.size original <> Wm_xml.Utree.size suspect then
    invalid_arg "Pipeline.detect_xml: structurally different documents";
  Tree_scheme.detect_weights xs.scheme
    ~original:(Wm_xml.Utree.weights original)
    ~suspect:(Wm_xml.Utree.weights suspect)
    ~length
